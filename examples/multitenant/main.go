// Multitenant: FilterForward's key contribution — many applications
// sharing one base-DNN execution on one edge node.
//
// Deploys a dozen microclassifiers (all three Figure 2 architectures,
// tapping two different base-DNN stages, with different crops) on a
// single stream and reports the per-frame time split: the base DNN
// runs once, each extra MC adds only its small marginal cost (§4.4).
//
// Run with: go run ./examples/multitenant
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
	d := dataset.Generate(dataset.Jackson(96, 120, 1))
	cfg := d.Cfg
	base := mobilenet.New(mobilenet.Config{WidthMult: 0.25, BatchNorm: true, Seed: 42})

	edge, err := core.NewEdgeNode(core.Config{
		FrameWidth: cfg.Width, FrameHeight: cfg.Height, FPS: cfg.FPS,
		Base: base, UploadBitrate: 50_000,
	})
	if err != nil {
		return err
	}

	// Twelve tenants: four of each architecture, alternating between
	// full-frame and region-cropped deployments.
	archs := []filter.Arch{
		filter.FullFrameObjectDetector,
		filter.LocalizedBinary,
		filter.WindowedLocalizedBinary,
		filter.PoolingClassifier,
	}
	region := cfg.Region()
	for i := 0; i < 12; i++ {
		spec := filter.Spec{
			Name: fmt.Sprintf("app-%02d-%s", i, archs[i%len(archs)]),
			Arch: archs[i%len(archs)],
			Seed: int64(100 + i),
		}
		if i%2 == 1 {
			crop := region
			spec.Crop = &crop
		}
		mc, err := filter.NewMC(spec, base, cfg.Width, cfg.Height)
		if err != nil {
			return err
		}
		// Untrained MCs with an unreachable threshold: this example
		// measures compute sharing, not accuracy.
		if err := edge.Deploy(mc, 2); err != nil {
			return err
		}
	}

	for i := 0; i < cfg.Frames; i++ {
		if _, err := edge.ProcessFrame(d.Frame(i)); err != nil {
			return err
		}
	}

	st := edge.Stats()
	perFrameBase := st.BaseDNNTime.Seconds() / float64(st.Frames)
	perFrameMCs := st.MCTime.Seconds() / float64(st.Frames)
	fmt.Fprintf(w, "%d tenants on one stream, %d frames\n", len(edge.MCNames()), st.Frames)
	fmt.Fprintf(w, "base DNN:  %.4f s/frame (paid once, shared by all tenants)\n", perFrameBase)
	fmt.Fprintf(w, "all MCs:   %.4f s/frame (total marginal cost)\n", perFrameMCs)
	fmt.Fprintf(w, "per MC:    %.5f s/frame average\n", perFrameMCs/12)
	fmt.Fprintln(w, "\nper-tenant marginal time:")
	for _, name := range edge.MCNames() {
		fmt.Fprintf(w, "  %-36s %.5f s/frame\n", name, st.MCTimeBy[name].Seconds()/float64(st.Frames))
	}
	naive := (perFrameBase + perFrameMCs/12) * 12
	fmt.Fprintf(w, "\nwithout sharing, 12 tenants would cost ~%.4f s/frame; sharing costs %.4f (%.1fx better)\n",
		naive, perFrameBase+perFrameMCs, naive/(perFrameBase+perFrameMCs))
	return nil
}
