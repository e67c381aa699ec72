package reuse

import "testing"

func TestSlice(t *testing.T) {
	if s := Slice([]int{1, 2}, 0); s != nil {
		t.Errorf("length 0 gave %v, want nil", s)
	}
	buf := make([]int, 2, 8)
	if s := Slice(buf, 5); len(s) != 5 || &s[0] != &buf[0] {
		t.Error("a slice with room was not resized in place")
	}
	nested := [][]byte{[]byte("ab"), []byte("cd")}
	grown := Slice(nested, 4)
	if len(grown) != 4 || &grown[0][0] != &nested[0][0] || &grown[1][0] != &nested[1][0] {
		t.Error("growing dropped the old elements' nested buffers")
	}
	if c := Copy(buf, []int{}); c != nil {
		t.Errorf("copying an empty slice gave %v, want nil", c)
	}
	if c := Copy(buf[:0], []int{4, 5}); len(c) != 2 || c[1] != 5 || &c[0] != &buf[0] {
		t.Errorf("Copy gave %v, not a copy in dst's array", c)
	}
	if n := testing.AllocsPerRun(100, func() { buf = Slice(buf, 7) }); n != 0 {
		t.Errorf("resizing within capacity allocated %v times", n)
	}
}

func TestPool(t *testing.T) {
	p := NewPool[[]byte](1)
	a := p.Get()
	*a = make([]byte, 64)
	p.Put(a)
	p.Put(new([]byte)) // beyond the capacity: dropped
	if b := p.Get(); b != a || len(*b) != 64 {
		t.Error("Get did not return the pooled item")
	}
	if c := p.Get(); c == a || *c != nil {
		t.Error("an empty pool did not return a new item")
	}
}
