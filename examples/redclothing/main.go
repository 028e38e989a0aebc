// Redclothing: the paper's Roadway scenario, plus demand-fetch.
//
// Trains the People-with-red microclassifier, filters the test day on
// the edge, then demand-fetches context video around the first
// detected event from the edge node's archive (§3.2) — the workflow a
// datacenter application uses when it wants more than the matched
// frames.
//
// Run with: go run ./examples/redclothing
package main

import (
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/filter"
	"repro/internal/metrics"
	"repro/internal/mobilenet"
	"repro/internal/pretrain"
	"repro/internal/tensor"
	"repro/internal/train"
	"repro/internal/vision"
)

func main() {
	trainDay := dataset.Generate(dataset.Roadway(96, 900, 1))
	testDay := dataset.Generate(dataset.Roadway(96, 900, 2))
	cfg := trainDay.Cfg

	fmt.Println("pretraining base DNN ...")
	base := mobilenet.New(mobilenet.Config{WidthMult: 0.25, BatchNorm: true, Seed: 42})
	if _, err := pretrain.Run(base, pretrain.Config{Seed: 43}); err != nil {
		log.Fatal(err)
	}

	// The red garment is a fine-grained color detail, so the MC taps
	// an early stage (§3.4: "too late a layer may not be able to
	// observe small details").
	crop := cfg.Region()
	mc, err := filter.NewMC(filter.Spec{
		Name: "people-with-red", Arch: filter.LocalizedBinary,
		Stage: "conv2_2/sep", Crop: &crop, Seed: 7,
	}, base, cfg.Width, cfg.Height)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("training ...")
	fms := make([]*tensor.Tensor, cfg.Frames)
	for i := range fms {
		fm, err := base.Extract(trainDay.FrameTensor(i), mc.Stage())
		if err != nil {
			log.Fatal(err)
		}
		fms[i] = fm
	}
	mean, std := filter.ChannelStats(fms)
	if err := mc.SetNormalization(mean, std); err != nil {
		log.Fatal(err)
	}
	var samples []train.Sample
	for i := range fms {
		y := float32(0)
		if trainDay.Labels[i] {
			y = 1
		}
		samples = append(samples, train.Sample{X: mc.BuildInput(fms, i), Y: y})
	}
	if _, err := train.Fit(mc.Net(), samples, train.Config{
		Epochs: 8, BatchSize: 16, Seed: 1, BalanceClasses: true,
		Optimizer: train.NewAdam(0.003),
	}); err != nil {
		log.Fatal(err)
	}
	mc.Reset()

	fmt.Println("filtering the test day on the edge ...")
	edge, err := core.NewEdgeNode(core.Config{
		FrameWidth: cfg.Width, FrameHeight: cfg.Height, FPS: cfg.FPS,
		Base: base, UploadBitrate: 60_000, KeepReconstructions: true,
	})
	if err != nil {
		log.Fatal(err)
	}
	if err := edge.Deploy(mc, 0.9); err != nil {
		log.Fatal(err)
	}
	dc := core.NewDatacenter()
	for i := 0; i < testDay.Cfg.Frames; i++ {
		ups, err := edge.ProcessFrame(testDay.Frame(i))
		if err != nil {
			log.Fatal(err)
		}
		dc.ReceiveAll(ups)
	}
	tail, err := edge.Flush()
	if err != nil {
		log.Fatal(err)
	}
	dc.ReceiveAll(tail)

	st := edge.Stats()
	pred := dc.PredictedLabels("people-with-red", testDay.Cfg.Frames)
	r := metrics.Evaluate(testDay.Labels, pred)
	fmt.Printf("uploaded %d frames (%.1f kb/s); event F1 %.3f (P %.3f, R %.3f)\n",
		st.UploadedFrames, st.AverageUploadBitrate(cfg.FPS)/1000, r.F1, r.Precision, r.Recall)

	// Demand-fetch 2 seconds of context before the first received
	// event, at a lower bitrate, from the edge's archived stream.
	uploads := dc.Uploads("people-with-red")
	if len(uploads) == 0 {
		fmt.Println("no events detected; nothing to demand-fetch")
		return
	}
	first := uploads[0]
	ctxStart := first.Start - 2*cfg.FPS
	if ctxStart < 0 {
		ctxStart = 0
	}
	// The reconstructions stream through in chunks the edge reuses:
	// score the first frame while its chunk is live.
	var quality float64
	fetched := 0
	f, err := edge.ReadFetch(testDay, ctxStart, first.Start, 30_000, func(recons []*vision.Image) error {
		if fetched == 0 {
			quality = vision.PSNR(testDay.Frame(ctxStart), recons[0])
		}
		fetched += len(recons)
		return nil
	})
	if err != nil {
		log.Fatal(err)
	}
	edge.AccountFetch(f)
	fmt.Printf("demand-fetched context [%d,%d): %d frames, %d bits, first-frame PSNR %.1f dB\n",
		ctxStart, first.Start, fetched, f.Bits, quality)
}
