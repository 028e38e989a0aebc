// Quickstart: the smallest end-to-end FilterForward loop.
//
// It builds a base DNN, deploys one microclassifier on an edge node,
// streams a short synthetic camera feed through it, and prints what
// would be uploaded to the datacenter. The MC here is untrained with a
// permissive threshold, so the point is the plumbing, not accuracy —
// see examples/pedestrian and examples/redclothing for trained
// pipelines.
//
// Run with: go run ./examples/quickstart
package main

import (
	"fmt"
	"io"
	"log"
	"os"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/filter"
	"repro/internal/mobilenet"
)

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run is main without the process: it writes the example's report to w.
func run(w io.Writer) error {
	// A 20-second synthetic camera stream (Jackson-style scene).
	d := dataset.Generate(dataset.Jackson(96, 300, 1))
	cfg := d.Cfg

	// The shared feature extractor: one base DNN for all applications.
	base := mobilenet.New(mobilenet.Config{WidthMult: 0.25, BatchNorm: true, Seed: 42})

	// One application's microclassifier: a localized binary classifier
	// over the crosswalk region's feature maps.
	crop := cfg.Region()
	mc, err := filter.NewMC(filter.Spec{
		Name: "quickstart-mc",
		Arch: filter.LocalizedBinary,
		Crop: &crop,
		Seed: 7,
	}, base, cfg.Width, cfg.Height)
	if err != nil {
		return err
	}

	// The edge node: decode -> base DNN -> MCs -> smooth -> re-encode
	// matched segments -> uplink.
	edge, err := core.NewEdgeNode(core.Config{
		FrameWidth: cfg.Width, FrameHeight: cfg.Height, FPS: cfg.FPS,
		Base:            base,
		UploadBitrate:   50_000,  // re-encode matched segments at 50 kb/s
		UplinkBandwidth: 200_000, // a 200 kb/s link
	})
	if err != nil {
		return err
	}
	if err := edge.Deploy(mc, 0.45); err != nil {
		return err
	}

	dc := core.NewDatacenter()
	for i := 0; i < cfg.Frames; i++ {
		uploads, err := edge.ProcessFrame(d.Frame(i))
		if err != nil {
			return err
		}
		for _, u := range uploads {
			fmt.Fprintf(w, "upload: event %d frames [%d,%d) %d bits\n", u.EventID, u.Start, u.End, u.Bits)
		}
		dc.ReceiveAll(uploads)
	}
	tail, err := edge.Flush()
	if err != nil {
		return err
	}
	dc.ReceiveAll(tail)

	st := edge.Stats()
	fmt.Fprintf(w, "\nprocessed %d frames; uploaded %d frames in %d segments (%.1f kb/s average)\n",
		st.Frames, st.UploadedFrames, st.Uploads, st.AverageUploadBitrate(cfg.FPS)/1000)
	return nil
}
