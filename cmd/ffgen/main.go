// Command ffgen generates a synthetic dataset, prints its Figure 3b
// statistics, and optionally writes sample frames as PNGs for visual
// inspection.
package main

import (
	"errors"
	"flag"
	"fmt"
	"image"
	"image/color"
	"image/png"
	"io"
	"os"
	"path/filepath"

	"repro/internal/dataset"
	"repro/internal/vision"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is main without the process: it parses args, prints the dataset
// statistics to stdout (and any dumped frames), reports errors to
// stderr, and returns the exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("ffgen", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name   = fs.String("dataset", "jackson", "jackson|roadway")
		width  = fs.Int("width", 192, "working-scale frame width")
		frames = fs.Int("frames", 3000, "number of frames")
		seed   = fs.Int64("seed", 1, "schedule seed (use seed+1 for the test day)")
		dump   = fs.Int("dump", 0, "write this many sample frames as PNGs")
		outDir = fs.String("out", ".", "directory for dumped frames")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	var cfg dataset.Config
	switch *name {
	case "jackson":
		cfg = dataset.Jackson(*width, *frames, *seed)
	case "roadway":
		cfg = dataset.Roadway(*width, *frames, *seed)
	default:
		fmt.Fprintf(stderr, "ffgen: unknown dataset %q\n", *name)
		return 1
	}
	d := dataset.Generate(cfg)
	s := d.Stats()
	fmt.Fprintf(stdout, "dataset      %s (%s task)\n", cfg.Name, cfg.TaskName)
	fmt.Fprintf(stdout, "resolution   %dx%d (native %dx%d), %d fps\n", cfg.Width, cfg.Height, cfg.PaperWidth, cfg.PaperHeight, cfg.FPS)
	fmt.Fprintf(stdout, "frames       %d\n", s.Frames)
	fmt.Fprintf(stdout, "event frames %d (%.1f%%)\n", s.EventFrames, 100*s.EventFraction)
	fmt.Fprintf(stdout, "events       %d (mean length %.1f frames)\n", s.UniqueEvents, s.MeanEventLen)
	fmt.Fprintf(stdout, "task region  %+v (working coords)\n", cfg.Region())

	if *dump > 0 {
		step := *frames / *dump
		if step < 1 {
			step = 1
		}
		for i := 0; i < *frames && i/step < *dump; i += step {
			path := filepath.Join(*outDir, fmt.Sprintf("%s-%06d-%v.png", cfg.Name, i, d.Labels[i]))
			if err := writePNG(path, d.Frame(i)); err != nil {
				fmt.Fprintf(stderr, "ffgen: %v\n", err)
				return 1
			}
			fmt.Fprintf(stdout, "wrote %s\n", path)
		}
	}
	return 0
}

// writePNG converts a float RGB frame to an 8-bit PNG.
func writePNG(path string, im *vision.Image) error {
	out := image.NewRGBA(image.Rect(0, 0, im.W, im.H))
	for y := 0; y < im.H; y++ {
		for x := 0; x < im.W; x++ {
			r, g, b := im.At(x, y)
			out.Set(x, y, color.RGBA{R: to8(r), G: to8(g), B: to8(b), A: 255})
		}
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := png.Encode(f, out); err != nil {
		return err
	}
	return f.Close()
}

func to8(v float32) uint8 {
	if v < 0 {
		v = 0
	}
	if v > 1 {
		v = 1
	}
	return uint8(v*254.99 + 0.5)
}
