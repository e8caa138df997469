package lru

import "testing"

func TestEvictsLeastRecentlyUsedToFitBudget(t *testing.T) {
	c := New[int](100)
	c.Put("a", 1, 40)
	c.Put("b", 2, 40)
	if _, ok := c.Get("a"); !ok { // a is now fresher than b
		t.Fatal("a missing")
	}
	c.Put("c", 3, 40) // 120 > 100: b goes
	if _, ok := c.Get("b"); ok {
		t.Fatal("b should have been evicted, it was least recently used")
	}
	for _, k := range []string{"a", "c"} {
		if _, ok := c.Get(k); !ok {
			t.Fatalf("%s should have survived", k)
		}
	}
	if c.Len() != 2 || c.Bytes() != 80 || c.Evictions() != 1 {
		t.Fatalf("len %d bytes %d evictions %d, want 2/80/1", c.Len(), c.Bytes(), c.Evictions())
	}
}

func TestPutReplacesAndRecharges(t *testing.T) {
	c := New[string](100)
	c.Put("k", "short", 10)
	c.Put("other", "x", 10)
	c.Put("k", "long", 70)
	if v, _ := c.Get("k"); v != "long" {
		t.Fatalf("Get(k) = %q, want the replacement", v)
	}
	if c.Len() != 2 || c.Bytes() != 80 || c.Evictions() != 0 {
		t.Fatalf("len %d bytes %d evictions %d, want 2/80/0", c.Len(), c.Bytes(), c.Evictions())
	}
	c.Put("k", "huge", 95) // 105 > 100: the OTHER entry goes, never the one just stored
	if _, ok := c.Get("other"); ok {
		t.Fatal("other should have been evicted")
	}
	if v, ok := c.Get("k"); !ok || v != "huge" {
		t.Fatal("the entry just stored must survive its own Put")
	}
}

func TestOversizedEntryIsAdmittedAlone(t *testing.T) {
	c := New[int](10)
	c.Put("small", 1, 5)
	c.Put("big", 2, 500)
	if _, ok := c.Get("big"); !ok || c.Len() != 1 || c.Bytes() != 500 {
		t.Fatalf("an oversized entry should be held alone: len %d bytes %d", c.Len(), c.Bytes())
	}
	c.Purge()
	if c.Len() != 0 || c.Bytes() != 0 || c.Evictions() != 1 {
		t.Fatalf("after Purge: len %d bytes %d evictions %d, want 0/0/1", c.Len(), c.Bytes(), c.Evictions())
	}
	if _, ok := c.Get("big"); ok {
		t.Fatal("Purge left an entry behind")
	}
}
