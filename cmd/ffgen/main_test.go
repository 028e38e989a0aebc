package main

import (
	"image/png"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestDumpWritesPNGs asks for two sample frames and checks that exactly
// two PNG files appear and decode at the dataset's frame size.
func TestDumpWritesPNGs(t *testing.T) {
	dir := t.TempDir()
	var stdout, stderr strings.Builder
	if code := run([]string{"-width", "48", "-frames", "30", "-dump", "2", "-out", dir}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d: %s", code, stderr.String())
	}
	if !strings.Contains(stdout.String(), "frames       30\n") {
		t.Fatalf("no 'frames       30' line:\n%s", stdout.String())
	}
	files, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != 2 {
		t.Fatalf("%d files written, want 2", len(files))
	}
	for _, e := range files {
		f, err := os.Open(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		im, err := png.Decode(f)
		f.Close()
		if err != nil {
			t.Fatalf("%s: %v", e.Name(), err)
		}
		if w := im.Bounds().Dx(); w != 48 {
			t.Fatalf("%s is %d px wide, want 48", e.Name(), w)
		}
	}
}

func TestUnknownDatasetRejected(t *testing.T) {
	var stdout, stderr strings.Builder
	if code := run([]string{"-dataset", "jacksonn", "-frames", "30"}, &stdout, &stderr); code == 0 {
		t.Fatal("unknown dataset exited 0")
	}
	if !strings.Contains(stderr.String(), `unknown dataset "jacksonn"`) {
		t.Fatalf("error does not name the dataset: %q", stderr.String())
	}
}
