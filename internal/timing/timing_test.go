package timing

import (
	"strings"
	"testing"
	"time"
)

func TestAddAndGet(t *testing.T) {
	p := New()
	p.Add("a", time.Second)
	p.Add("a", time.Second)
	p.Add("b", 500*time.Millisecond)
	if p.Get("a") != 2*time.Second {
		t.Fatalf("a = %v", p.Get("a"))
	}
	if p.Seconds("b") != 0.5 {
		t.Fatalf("b = %g", p.Seconds("b"))
	}
	if p.Get("missing") != 0 {
		t.Fatal("missing phase should be zero")
	}
	if p.Total() != 2500*time.Millisecond {
		t.Fatalf("total %v", p.Total())
	}
}

func TestStartStop(t *testing.T) {
	p := New()
	stop := p.Start("work")
	time.Sleep(5 * time.Millisecond)
	stop()
	if p.Get("work") < 4*time.Millisecond {
		t.Fatalf("recorded %v", p.Get("work"))
	}
}

func TestNamesOrder(t *testing.T) {
	p := New()
	p.Add("z", 1)
	p.Add("a", 1)
	p.Add("z", 1)
	names := p.Names()
	if len(names) != 2 || names[0] != "z" || names[1] != "a" {
		t.Fatalf("names %v", names)
	}
}

func TestMerge(t *testing.T) {
	a := New()
	a.Add("x", 2*time.Second)
	b := New()
	b.Add("x", 3*time.Second)
	b.Add("y", time.Second)

	sum := New()
	sum.Merge(a)
	sum.Merge(b)
	if sum.Get("x") != 5*time.Second || sum.Get("y") != time.Second {
		t.Fatalf("merge wrong: %v", sum)
	}
}

func TestStringSortedByDuration(t *testing.T) {
	p := New()
	p.Add("small", time.Millisecond)
	p.Add("big", time.Second)
	s := p.String()
	if !strings.Contains(s, "big") || strings.Index(s, "big") > strings.Index(s, "small") {
		t.Fatalf("string not sorted: %s", s)
	}
}
