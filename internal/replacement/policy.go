// Package replacement provides cache replacement policies: LRU and
// Hawkeye (Jain & Lin, ISCA'16), which the paper uses both as an LLC
// policy and — in modified form — as Triage's metadata replacement
// policy and partition-utility estimator. Hawkeye's OPTgen sampler is
// the Sandbox type, which Triage's estimators share.
package replacement

import "repro/internal/mem"

// Access carries the information a policy may use on each cache access.
type Access struct {
	Line mem.Line
	PC   uint64
	// Core is the id of the requesting core (0 on single-core systems).
	Core int
	// Prefetch marks fills/touches caused by a prefetcher rather than a
	// demand access.
	Prefetch bool
}

// Policy decides which way to evict within a set and observes hits and
// fills. A single Policy instance serves one cache; implementations are
// sized with NewXxx(sets, ways).
type Policy interface {
	// Name identifies the policy in reports.
	Name() string
	// Hit notifies the policy that the line in (set, way) was accessed.
	Hit(set, way int, a Access)
	// Fill notifies the policy that a new line was installed in
	// (set, way).
	Fill(set, way int, a Access)
	// Victim selects the way to evict from set, which is full and
	// holds data in ways 0..ways-1. The cache fills empty ways itself
	// and asks only when none is left.
	Victim(set, ways int) int
}
