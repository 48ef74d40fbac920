package replacement

import (
	"testing"

	"repro/internal/mem"
)

func TestLRUEvictsLeastRecent(t *testing.T) {
	p := NewLRU(1, 4)
	for w := 0; w < 4; w++ {
		p.Fill(0, w, Access{})
	}
	p.Hit(0, 0, Access{}) // way 0 most recent; way 1 now LRU
	if got := p.Victim(0, 4); got != 1 {
		t.Errorf("Victim = %d, want 1", got)
	}
	p.Hit(0, 1, Access{})
	if got := p.Victim(0, 4); got != 2 {
		t.Errorf("Victim = %d, want 2", got)
	}
}

func TestLRUSetsIndependent(t *testing.T) {
	p := NewLRU(2, 2)
	p.Fill(0, 0, Access{})
	p.Fill(0, 1, Access{})
	p.Fill(1, 1, Access{})
	p.Fill(1, 0, Access{})
	if got := p.Victim(0, 2); got != 0 {
		t.Errorf("set 0 Victim = %d, want 0", got)
	}
	if got := p.Victim(1, 2); got != 1 {
		t.Errorf("set 1 Victim = %d, want 1", got)
	}
}

// Every policy must implement the Policy interface.
var (
	_ Policy = (*LRU)(nil)
	_ Policy = (*Hawkeye)(nil)
)

// Cross-policy property: victims are always legal way indices.
func TestAllPoliciesVictimInRange(t *testing.T) {
	policies := []Policy{
		NewLRU(8, 4),
		NewHawkeye(8, 4, 2, 8),
	}
	for _, p := range policies {
		for i := 0; i < 500; i++ {
			set := i % 8
			a := Access{Line: mem.Line(i * 37), PC: uint64(i % 5)}
			v := p.Victim(set, 4)
			if v < 0 || v >= 4 {
				t.Fatalf("%s: victim %d out of range", p.Name(), v)
			}
			p.Fill(set, v, a)
			if i%3 == 0 {
				p.Hit(set, v, a)
			}
		}
	}
}
