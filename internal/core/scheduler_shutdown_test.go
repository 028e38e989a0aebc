package core

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
)

// TestSchedulerShutdownDrains pins the graceful-shutdown contract:
// Close returns only after every submitted item has been processed
// AND its OnResult callback has returned (a deterministic drain), and
// afterwards every entry point fails fast with ErrSchedulerClosed
// instead of hanging or panicking.
func TestSchedulerShutdownDrains(t *testing.T) {
	node := buildSchedNode(t, 2)
	streams := node.streamNames()
	frames := schedFrames(3, 12)

	var results atomic.Int64
	sched := node.NewScheduler(SchedulerConfig{
		Workers:  3,
		OnResult: func(Result) { results.Add(1) },
	})

	submitted := 0
	for _, f := range frames {
		for _, name := range streams {
			if err := sched.Submit(name, f); err != nil {
				t.Fatal(err)
			}
			submitted++
		}
	}
	// Flush serializes after each stream's in-flight frames, so the
	// tails close deterministically before shutdown.
	if _, err := sched.FlushAll(); err != nil {
		t.Fatal(err)
	}
	sched.Close()

	// Every submitted frame's callback completed before Close returned.
	if got := results.Load(); got != int64(submitted) {
		t.Fatalf("Close returned with %d/%d results delivered", got, submitted)
	}
	if st := node.Stats(); st.Frames != submitted {
		t.Fatalf("node processed %d frames, want %d", st.Frames, submitted)
	}
	if err := sched.Err(); err != nil {
		t.Fatal(err)
	}

	// Submit-after-close regression: every entry point reports closure.
	if err := sched.Submit(streams[0], frames[0]); !errors.Is(err, ErrSchedulerClosed) {
		t.Fatalf("Submit after Close: %v, want scheduler-closed error", err)
	}
	if _, err := sched.Do(streams[0], func(*EdgeNode) ([]Upload, error) { return nil, nil }); !errors.Is(err, ErrSchedulerClosed) {
		t.Fatalf("Do after Close: %v, want scheduler-closed error", err)
	}
	if _, err := sched.Flush(streams[0]); !errors.Is(err, ErrSchedulerClosed) {
		t.Fatalf("Flush after Close: %v, want scheduler-closed error", err)
	}
	if _, err := sched.FlushAll(); err == nil {
		t.Fatal("FlushAll after Close succeeded")
	}
	if _, err := sched.Do(streams[0], func(e *EdgeNode) ([]Upload, error) { return e.Undeploy("mc0") }); err == nil {
		t.Fatal("Undeploy after Close succeeded")
	}
	// Wait and repeated Close are no-ops, not deadlocks.
	sched.Wait()
	sched.Close()

	// Concurrent Close calls race safely (run under -race in CI).
	sched2 := node.NewScheduler(SchedulerConfig{Workers: 2})
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sched2.Close()
		}()
	}
	wg.Wait()

	// The node remains usable directly after its scheduler is gone.
	if _, err := node.Stream(streams[0]).ProcessFrame(frames[0]); err != nil {
		t.Fatalf("node unusable after scheduler shutdown: %v", err)
	}
}
