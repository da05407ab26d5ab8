package sim

import (
	"testing"
	"testing/quick"
)

func TestQueueFIFO(t *testing.T) {
	k := New(1)
	q := NewQueue[int](k, "q")
	var got []int
	k.Spawn("consumer", func(p *Proc) {
		for {
			v, ok := q.Pop(p)
			if !ok {
				return
			}
			got = append(got, v)
		}
	})
	k.Spawn("producer", func(p *Proc) {
		for i := 0; i < 5; i++ {
			p.Sleep(Second)
			q.Push(i)
		}
		q.Close()
	})
	k.Run()
	for i, v := range got {
		if v != i {
			t.Fatalf("queue not FIFO: %v", got)
		}
	}
	if len(got) != 5 {
		t.Fatalf("consumed %d items, want 5", len(got))
	}
}

func TestQueueTryPop(t *testing.T) {
	k := New(1)
	q := NewQueue[string](k, "q")
	if _, ok := q.TryPop(); ok {
		t.Fatal("TryPop on empty queue returned ok")
	}
	q.Push("x")
	if q.Len() != 1 {
		t.Fatalf("Len = %d, want 1", q.Len())
	}
	v, ok := q.TryPop()
	if !ok || v != "x" {
		t.Fatalf("TryPop = %q, %v", v, ok)
	}
}

func TestQueueCloseDrains(t *testing.T) {
	k := New(1)
	q := NewQueue[int](k, "q")
	q.Push(1)
	q.Push(2)
	q.Close()
	var got []int
	k.Spawn("c", func(p *Proc) {
		for {
			v, ok := q.Pop(p)
			if !ok {
				return
			}
			got = append(got, v)
		}
	})
	k.Run()
	if len(got) != 2 {
		t.Fatalf("drained %d items after close, want 2", len(got))
	}
	if !q.Closed() {
		t.Fatal("Closed() = false")
	}
}

func TestQueuePushAfterClosePanics(t *testing.T) {
	k := New(1)
	q := NewQueue[int](k, "q")
	q.Close()
	defer func() {
		if recover() == nil {
			t.Fatal("push after close did not panic")
		}
	}()
	q.Push(1)
}

func TestResourceExclusion(t *testing.T) {
	k := New(1)
	r := NewResource(k, "disk", 1)
	var maxConcurrent, current int
	for i := 0; i < 4; i++ {
		k.Spawn("user", func(p *Proc) {
			r.Acquire(p)
			current++
			if current > maxConcurrent {
				maxConcurrent = current
			}
			p.Sleep(Second)
			current--
			r.Release()
		})
	}
	k.Run()
	if maxConcurrent != 1 {
		t.Fatalf("max concurrent holders = %d, want 1", maxConcurrent)
	}
	if k.Now() != Time(4*Second) {
		t.Fatalf("serialized work finished at %v, want 4s", k.Now())
	}
}

func TestResourceCapacity(t *testing.T) {
	k := New(1)
	r := NewResource(k, "pool", 2)
	if !r.TryAcquire() || !r.TryAcquire() {
		t.Fatal("TryAcquire failed with free capacity")
	}
	if r.TryAcquire() {
		t.Fatal("TryAcquire succeeded beyond capacity")
	}
	if r.InUse() != 2 || r.Capacity() != 2 {
		t.Fatalf("InUse=%d Capacity=%d", r.InUse(), r.Capacity())
	}
	r.Release()
	if !r.TryAcquire() {
		t.Fatal("TryAcquire failed after release")
	}
}

func TestResourceReleaseUnheldPanics(t *testing.T) {
	k := New(1)
	r := NewResource(k, "x", 1)
	defer func() {
		if recover() == nil {
			t.Fatal("release of unheld resource did not panic")
		}
	}()
	r.Release()
}

// TestNewResourceOneAlloc pins NewResource to one object, the resource
// with its release signal inside, and the signal's printed name to the
// resource name plus ".released".
func TestNewResourceOneAlloc(t *testing.T) {
	k := New(1)
	name := "sb.mutex"
	var r *Resource
	if n := testing.AllocsPerRun(100, func() { r = NewResource(k, name, 1) }); n != 1 {
		t.Fatalf("NewResource allocates %v objects, want 1", n)
	}
	if got, want := r.released.String(), "signal(sb.mutex.released)"; got != want {
		t.Fatalf("release signal prints as %q, want %q", got, want)
	}
}

func TestQueueOrderProperty(t *testing.T) {
	// Whatever sequence is pushed is popped in the same order.
	f := func(values []int) bool {
		k := New(7)
		q := NewQueue[int](k, "q")
		var got []int
		k.Spawn("c", func(p *Proc) {
			for {
				v, ok := q.Pop(p)
				if !ok {
					return
				}
				got = append(got, v)
			}
		})
		k.Spawn("p", func(p *Proc) {
			for _, v := range values {
				q.Push(v)
				p.Sleep(Millisecond)
			}
			q.Close()
		})
		k.Run()
		if len(got) != len(values) {
			return false
		}
		for i := range got {
			if got[i] != values[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}
