package apps

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
)

// fakeRecording is a held value of a chosen size.
type fakeRecording struct{ n int64 }

func (f *fakeRecording) Bytes() int64 { return f.n }

// recordFake claims an unseen key and publishes a recording of n bytes.
func recordFake(t *testing.T, key string, n int64) *fakeRecording {
	t.Helper()
	held, publish := Claim(context.Background(), key)
	if held != nil || publish == nil {
		t.Fatalf("%s: an unseen key was not handed to a recorder", key)
	}
	f := &fakeRecording{n}
	publish(f, nil)
	if st := LogCache(); st.Bytes > logCacheBytes {
		t.Fatalf("after publishing %s the cache holds %d bytes, bound %d", key, st.Bytes, logCacheBytes)
	}
	return f
}

// heldKeys reports which of keys the cache holds a recording for.
func heldKeys(keys ...string) map[string]bool {
	logCache.mu.Lock()
	defer logCache.mu.Unlock()
	out := map[string]bool{}
	for _, k := range keys {
		e := logCache.entries[k]
		out[k] = e != nil && e.held != nil
	}
	return out
}

// TestCacheEvictsLeastRecentlyUsed fills the cache to its byte bound and
// past it: held bytes never exceed logCacheBytes, a hit refreshes its
// entry, and eviction takes the least recently used first.
func TestCacheEvictsLeastRecentlyUsed(t *testing.T) {
	ResetLogCache()
	defer ResetLogCache()
	quarter := int64(logCacheBytes / 4)
	a := recordFake(t, "a", quarter)
	for _, k := range []string{"b", "c", "d"} {
		recordFake(t, k, quarter)
	}
	if st := LogCache(); st.Entries != 4 || st.Bytes != logCacheBytes {
		t.Fatalf("a cache filled exactly to its bound holds %d entries in %d bytes, want 4 in %d", st.Entries, st.Bytes, logCacheBytes)
	}
	if held, publish := Claim(context.Background(), "a"); held != a || publish != nil {
		t.Fatal("a held key was not a hit")
	}
	recordFake(t, "e", quarter)
	want := map[string]bool{"a": true, "b": false, "c": true, "d": true, "e": true}
	if got := heldKeys("a", "b", "c", "d", "e"); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("after a hit on a and one more recording, held %v, want %v", got, want)
	}
	recordFake(t, "f", 2*quarter)
	want = map[string]bool{"a": true, "c": false, "d": false, "e": true, "f": true}
	if got := heldKeys("a", "c", "d", "e", "f"); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("after a half-bound recording, held %v, want %v", got, want)
	}
	if st := LogCache(); st.Entries != 3 || st.Bytes != logCacheBytes {
		t.Fatalf("cache holds %d entries in %d bytes, want 3 in %d", st.Entries, st.Bytes, logCacheBytes)
	}
	// An evicted key records again.
	if held, publish := Claim(context.Background(), "b"); held != nil || publish == nil {
		t.Fatal("an evicted key was not handed to a recorder")
	} else {
		publish(nil, errors.New("vacate"))
	}
}

// waitSignal is a context whose Done reports, once, that a Claim has
// looked its key up and found a recording in flight to wait for.
type waitSignal struct {
	context.Context
	once    sync.Once
	waiting chan struct{}
}

func (w *waitSignal) Done() <-chan struct{} {
	w.once.Do(func() { close(w.waiting) })
	return w.Context.Done()
}

// TestCachePublishesInFlightRecording fills the cache past its bound and
// then resets it while a recording is in flight and a claim waits for
// it. Eviction takes only held recordings, so the filling leaves the
// in-flight entry in place. After the reset, the recording still
// reaches the waiting claim, without joining the reset cache, and the
// key's new recorder publishes independently.
func TestCachePublishesInFlightRecording(t *testing.T) {
	ResetLogCache()
	defer ResetLogCache()
	ctx := context.Background()
	_, publish := Claim(ctx, "first")
	if publish == nil {
		t.Fatal("an unseen key was not handed to a recorder")
	}
	logCache.mu.Lock()
	inFlight := logCache.entries["first"]
	logCache.mu.Unlock()
	waiter := &waitSignal{Context: ctx, waiting: make(chan struct{})}
	got := make(chan Recording, 1)
	go func() {
		held, _ := Claim(waiter, "first")
		got <- held
	}()
	<-waiter.waiting
	for i := 0; i < 8; i++ {
		recordFake(t, fmt.Sprintf("key%d", i), logCacheBytes/4)
	}
	logCache.mu.Lock()
	evicted := logCache.entries["first"] != inFlight
	logCache.mu.Unlock()
	if evicted {
		t.Fatal("filling the cache evicted an in-flight recording")
	}

	ResetLogCache()
	_, again := Claim(ctx, "first")
	if again == nil {
		t.Fatal("a key reset while in flight was not handed to a new recorder")
	}
	f, g := &fakeRecording{1}, &fakeRecording{2}
	publish(f, nil)
	if st := LogCache(); st.Entries != 0 || st.Bytes != 0 {
		t.Fatalf("a recording published after a reset joined the cache: %d entries, %d bytes", st.Entries, st.Bytes)
	}
	again(g, nil)
	if held := <-got; held != f {
		t.Fatal("the claim waiting on a reset entry did not receive its recording")
	}
	if held, _ := Claim(ctx, "first"); held != g {
		t.Fatal("the new recorder's recording is not held")
	}
	if st := LogCache(); st.Entries != 1 || st.Bytes != 2 {
		t.Fatalf("cache holds %d entries in %d bytes, want 1 in 2", st.Entries, st.Bytes)
	}
}

// TestClaimRecordsOnce claims one key from many goroutines at once:
// exactly one records, and every other claim returns its recording,
// whether it waited for the publish or came after it.
func TestClaimRecordsOnce(t *testing.T) {
	ResetLogCache()
	defer ResetLogCache()
	f := &fakeRecording{1}
	var mu sync.Mutex
	recorders := 0
	got := make([]Recording, 16)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			held, publish := Claim(context.Background(), "shared")
			if publish != nil {
				mu.Lock()
				recorders++
				mu.Unlock()
				publish(f, nil)
				held = f
			}
			got[i] = held
		}()
	}
	wg.Wait()
	if recorders != 1 {
		t.Errorf("%d claims recorded one key, want 1", recorders)
	}
	for i, h := range got {
		if h != f {
			t.Errorf("claim %d returned %v, want the one recording", i, h)
		}
	}
}
