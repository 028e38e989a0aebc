package core

import (
	"strings"
	"testing"

	"repro/internal/filter"
	"repro/internal/vision"
)

func TestMultiStreamBasics(t *testing.T) {
	base := testBase()
	node, err := NewMultiStreamNode(Config{FrameWidth: 1, FrameHeight: 1, Base: base, UploadBitrate: 30_000, FPS: 15})
	if err != nil {
		t.Fatal(err)
	}
	a, err := node.AddStream("cam-a", 48, 27)
	if err != nil {
		t.Fatal(err)
	}
	b, err := node.AddStream("cam-b", 64, 36)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := node.AddStream("cam-a", 48, 27); err == nil {
		t.Fatal("duplicate stream accepted")
	}
	mcA, _ := filter.NewMC(filter.Spec{Name: "m", Arch: filter.PoolingClassifier, Seed: 1}, base, 48, 27)
	mcB, _ := filter.NewMC(filter.Spec{Name: "m", Arch: filter.PoolingClassifier, Seed: 2}, base, 64, 36)
	if err := a.Deploy(mcA, -1); err != nil {
		t.Fatal(err)
	}
	if err := b.Deploy(mcB, -1); err != nil {
		t.Fatal(err)
	}

	col := newUploadCollector()
	sched := node.NewScheduler(SchedulerConfig{Workers: 2, OnResult: col.OnResult})
	defer sched.Close()
	if _, err := node.AddStream("cam-c", 48, 27); err == nil {
		t.Fatal("stream added after the scheduler started: no worker would ever drive it")
	}
	for i := 0; i < 6; i++ {
		if err := sched.Submit("cam-a", vision.NewImage(48, 27)); err != nil {
			t.Fatal(err)
		}
		if err := sched.Submit("cam-b", vision.NewImage(64, 36)); err != nil {
			t.Fatal(err)
		}
	}
	tail, err := sched.FlushAll()
	if err != nil {
		t.Fatal(err)
	}
	if err := sched.Err(); err != nil {
		t.Fatal(err)
	}
	ups := append(append(col.Uploads("cam-a"), col.Uploads("cam-b")...), tail...)
	seenA, seenB := false, false
	for _, u := range ups {
		if strings.HasPrefix(u.MCName, "cam-a/") {
			seenA = true
		}
		if strings.HasPrefix(u.MCName, "cam-b/") {
			seenB = true
		}
	}
	if !seenA || !seenB {
		t.Fatalf("uploads missing stream prefixes: %+v", ups)
	}
	st := node.Stats()
	if st.Frames != 12 {
		t.Fatalf("aggregated frames = %d, want 12", st.Frames)
	}
	if len(st.MCTimeBy) != 2 {
		t.Fatalf("per-MC stats entries = %d", len(st.MCTimeBy))
	}
	if err := sched.Submit("nope", vision.NewImage(1, 1)); err == nil {
		t.Fatal("unknown stream accepted")
	}
}
