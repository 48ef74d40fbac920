package main

import "testing"

func TestParseInts(t *testing.T) {
	got, err := parseInts("128, 256,512")
	if err != nil {
		t.Fatal(err)
	}
	want := []int{128, 256, 512}
	if len(got) != len(want) {
		t.Fatalf("got %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("element %d = %d, want %d", i, got[i], want[i])
		}
	}
	if _, err := parseInts("12,abc"); err == nil {
		t.Error("bad list accepted")
	}
	if _, err := parseInts(""); err == nil {
		t.Error("empty list accepted")
	}
}

// TestParseSizes: a store size must pack into Triage's 2048-set,
// 4-byte-entry store, so only positive multiples of 8 KB pass; 0 would
// silently become Triage's 1 MB default.
func TestParseSizes(t *testing.T) {
	got, err := parseSizes("8,128, 1024")
	if err != nil || len(got) != 3 || got[0] != 8 || got[2] != 1024 {
		t.Errorf("parseSizes(8,128, 1024) = %v, %v", got, err)
	}
	for _, bad := range []string{"100", "128,100", "0", "-8", "4", "x"} {
		if _, err := parseSizes(bad); err == nil {
			t.Errorf("sizes %q accepted", bad)
		}
	}
}

// TestParseRepls: only the two policies sweep can build pass, so a
// misspelt name cannot run Hawkeye under its own label.
func TestParseRepls(t *testing.T) {
	got, err := parseRepls("lru, hawkeye")
	if err != nil || len(got) != 2 || got[0] != "lru" || got[1] != "hawkeye" {
		t.Errorf("parseRepls(lru, hawkeye) = %v, %v", got, err)
	}
	for _, bad := range []string{"LRU", "lru,bogus", "", "hawkeye,"} {
		if _, err := parseRepls(bad); err == nil {
			t.Errorf("policies %q accepted", bad)
		}
	}
}
