package cache

import "fmt"

// CheckInvariants verifies the cache's structural invariants: geometry
// is internally consistent, no set holds two valid lines with the same
// tag, and no valid line sits in a way reserved for metadata
// (SetDataWays evicts on shrink, so residency above dataWays means a
// fill escaped the partition). O(sets x ways^2); debug mode only.
func (c *Cache) CheckInvariants() error {
	if c.dataWays < 1 || c.dataWays > c.ways {
		return fmt.Errorf("cache %s: dataWays=%d of %d ways", c.name, c.dataWays, c.ways)
	}
	n := c.sets * c.ways
	if len(c.tags) != n || len(c.st) != n || len(c.live) != c.sets {
		return fmt.Errorf("cache %s: state arrays inconsistent with %dx%d geometry",
			c.name, c.sets, c.ways)
	}
	for s := 0; s < c.sets; s++ {
		base := s * c.ways
		lv := uint16(0)
		for w := 0; w < c.ways; w++ {
			if c.tags[base+w] != invalidTag {
				lv++
			}
		}
		if lv != c.live[s] {
			return fmt.Errorf("cache %s: set %d live count %d, actual %d", c.name, s, c.live[s], lv)
		}
		for w := c.dataWays; w < c.ways; w++ {
			if c.tags[base+w] != invalidTag {
				return fmt.Errorf("cache %s: set %d way %d valid inside reserved partition (dataWays=%d)",
					c.name, s, w, c.dataWays)
			}
		}
		for w := 0; w < c.dataWays; w++ {
			t := c.tags[base+w]
			if t == invalidTag {
				continue
			}
			for v := w + 1; v < c.dataWays; v++ {
				if c.tags[base+v] == t {
					return fmt.Errorf("cache %s: set %d ways %d and %d both hold tag %#x",
						c.name, s, w, v, t)
				}
			}
		}
	}
	return nil
}
