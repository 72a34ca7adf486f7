package fabric

import (
	"sync"
	"testing"
)

func TestNamingPutGet(t *testing.T) {
	n := NewNamingService()
	if _, _, ok := n.Get("missing"); ok {
		t.Error("Get on missing key succeeded")
	}
	v1 := n.Put("a", []byte("hello"))
	got, ver, ok := n.Get("a")
	if !ok || string(got) != "hello" || ver != v1 {
		t.Fatalf("Get = %q, %d, %v", got, ver, ok)
	}
}

func TestNamingVersionsIncrease(t *testing.T) {
	n := NewNamingService()
	v1 := n.Put("a", []byte("1"))
	v2 := n.Put("a", []byte("2"))
	v3 := n.Put("b", []byte("3"))
	if !(v1 < v2 && v2 < v3) {
		t.Errorf("versions not increasing: %d %d %d", v1, v2, v3)
	}
	if _, ver, _ := n.Get("a"); ver != v2 {
		t.Errorf("version of a = %d, want %d", ver, v2)
	}
}

func TestNamingGetIfChanged(t *testing.T) {
	n := NewNamingService()
	if _, _, ok := n.GetIfChanged("missing", 0); ok {
		t.Error("GetIfChanged on missing key succeeded")
	}
	v1 := n.Put("k", []byte("one"))
	got, ver, ok := n.GetIfChanged("k", 0)
	if !ok || string(got) != "one" || ver != v1 {
		t.Fatalf("GetIfChanged(k, 0) = %q, %d, %v", got, ver, ok)
	}
	got[0] = 'X'
	if again, _, _ := n.Get("k"); string(again) != "one" {
		t.Error("GetIfChanged did not copy the value")
	}
	got, ver, ok = n.GetIfChanged("k", v1)
	if !ok || got != nil || ver != v1 {
		t.Errorf("GetIfChanged(k, current) = %q, %d, %v; want nil, %d, true", got, ver, ok, v1)
	}
	v2 := n.Put("k", []byte("two"))
	if got, ver, _ := n.GetIfChanged("k", v1); string(got) != "two" || ver != v2 {
		t.Errorf("GetIfChanged(k, stale) = %q, %d; want two, %d", got, ver, v2)
	}
	// Every call counts as one read, copied or not.
	before := n.Reads()
	if allocs := testing.AllocsPerRun(100, func() { n.GetIfChanged("k", v2) }); allocs != 0 {
		t.Errorf("unchanged GetIfChanged allocates %v times, want 0", allocs)
	}
	if got := n.Reads() - before; got != 101 { // AllocsPerRun adds one warm-up call
		t.Errorf("Reads advanced by %d over 101 calls", got)
	}
}

func TestNamingValueIsCopied(t *testing.T) {
	n := NewNamingService()
	buf := []byte("abc")
	n.Put("k", buf)
	buf[0] = 'X'
	got, _, _ := n.Get("k")
	if string(got) != "abc" {
		t.Error("Put did not copy the value")
	}
	got[0] = 'Y'
	again, _, _ := n.Get("k")
	if string(again) != "abc" {
		t.Error("Get did not copy the value")
	}
}

func TestNamingDelete(t *testing.T) {
	n := NewNamingService()
	n.Put("k", []byte("v"))
	n.Delete("k")
	if _, _, ok := n.Get("k"); ok {
		t.Error("deleted key still present")
	}
	n.Delete("k") // idempotent
	if n.Len() != 0 {
		t.Errorf("Len = %d", n.Len())
	}
}

func TestNamingKeysPrefix(t *testing.T) {
	n := NewNamingService()
	n.Put("toto/load/db1", []byte("1"))
	n.Put("toto/load/db2", []byte("2"))
	n.Put("toto/models", []byte("m"))
	keys := n.Keys("toto/load/")
	if len(keys) != 2 || keys[0] != "toto/load/db1" || keys[1] != "toto/load/db2" {
		t.Errorf("Keys = %v", keys)
	}
	if got := n.Keys("other/"); len(got) != 0 {
		t.Errorf("Keys(other) = %v", got)
	}
}

func TestNamingConcurrentAccess(t *testing.T) {
	n := NewNamingService()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			key := string(rune('a' + g))
			for i := 0; i < 1000; i++ {
				n.Put(key, []byte{byte(i)})
				_, v, _ := n.Get(key)
				n.GetIfChanged(key, v)
			}
		}(g)
	}
	wg.Wait()
	if n.Len() != 8 {
		t.Errorf("Len = %d, want 8", n.Len())
	}
}
