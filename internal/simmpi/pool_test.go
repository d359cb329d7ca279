package simmpi

import (
	"context"
	"math"
	"testing"
)

// TestFreeBufPoisonsOnPut verifies the poison-on-put hook: once enabled,
// a recycled buffer's full capacity is overwritten with PoisonValue the
// moment it is freed, so any use-after-free surfaces as recognisable
// NaNs instead of silent stale data.
func TestFreeBufPoisonsOnPut(t *testing.T) {
	prev := SetPoisonPutsForTest(true)
	defer SetPoisonPutsForTest(prev)
	want := math.Float64bits(PoisonValue)
	_, err := RunContext(context.Background(), testCfg(1), func(r *Rank) {
		buf := r.GetBuf(64)
		buf = buf[:cap(buf)]
		for i := range buf {
			buf[i] = float64(i)
		}
		r.FreeBuf(buf)
		for i, v := range buf {
			if math.Float64bits(v) != want {
				t.Errorf("buf[%d] = %x after free, want poison %x", i, math.Float64bits(v), want)
				break
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestRetainedBufferNeverAliasedAcrossWorlds pins the pool's aliasing
// contract: only explicitly freed buffers are recycled, so a buffer a
// rank keeps past its world's end can never be handed to a later world
// and scribbled over.
func TestRetainedBufferNeverAliasedAcrossWorlds(t *testing.T) {
	const sentinel = 424242.0
	var retained []float64
	_, err := RunContext(context.Background(), testCfg(2), func(r *Rank) {
		if r.ID() != 0 {
			return
		}
		buf := r.GetBuf(128)
		buf = buf[:cap(buf)]
		for i := range buf {
			buf[i] = sentinel
		}
		retained = buf // escapes the world without FreeBuf
	})
	if err != nil {
		t.Fatal(err)
	}
	// A second world churning the same size class must never receive the
	// retained buffer.
	_, err = RunContext(context.Background(), testCfg(4), func(r *Rank) {
		for round := 0; round < 64; round++ {
			buf := r.GetBuf(128)
			buf = buf[:cap(buf)]
			for i := range buf {
				buf[i] = float64(r.ID()*1000 + round)
			}
			r.FreeBuf(buf)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range retained {
		if v != sentinel {
			t.Fatalf("retained[%d] = %g, want sentinel %g: pool aliased a live buffer", i, v, sentinel)
		}
	}
}

// TestUndeliveredMessagesNeverReachTheNextWorld ends a world with several
// messages still queued on one (source, tag) key and one alone on another
// key. The pooled world that runs next must see an empty mailbox: its own
// message on the same key is the first one delivered, and once it is
// received no key is left.
func TestUndeliveredMessagesNeverReachTheNextWorld(t *testing.T) {
	reused := 0
	for round := 0; round < 10; round++ {
		var first *World
		_, err := RunContext(context.Background(), testCfg(2), func(r *Rank) {
			if r.ID() == 0 {
				first = r.w
				for v := 1; v <= 3; v++ {
					r.Send(1, 7, []float64{float64(v)})
				}
				r.Send(1, 8, []float64{4})
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		_, err = RunContext(context.Background(), testCfg(2), func(r *Rank) {
			if r.ID() == 0 {
				if r.w == first {
					reused++
				}
				r.Send(1, 7, []float64{42})
				return
			}
			if got := r.Recv(0, 7); got[0] != 42 {
				t.Errorf("round %d: received stale message %v, want 42", round, got[0])
			}
			mb := &r.w.mail[1]
			mb.mu.Lock()
			n := len(mb.q)
			mb.mu.Unlock()
			if n != 0 {
				t.Errorf("round %d: mailbox holds %d keys after its only message", round, n)
			}
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if reused == 0 {
		t.Fatal("no round reused the pooled world; the test checked nothing")
	}
}
