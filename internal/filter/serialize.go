package filter

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"hash/fnv"
	"io"
	"os"

	"repro/internal/mobilenet"
	"repro/internal/nn"
)

// savedMC is the on-disk form of a deployed microclassifier: the spec
// (so the receiver can rebuild the architecture), the weights, and the
// input-normalization statistics. This is what an application
// developer ships to an edge node (§3.2: "the developer supplies the
// network weights and architecture specification along with the name
// of the base DNN layer ... to use as input").
type savedMC struct {
	Spec     Spec
	Params   []byte // nn.SaveParams stream
	NormMean []float32
	NormStd  []float32
}

// Save writes the MC's spec, weights, and normalization to w. The
// saved spec carries a WeightsHash fingerprint of the parameter
// stream, stamped into the serialized copy only — Save never mutates
// the receiver, so it is safe on a deployed MC whose spec concurrent
// heartbeat snapshots are reading.
func (m *MC) Save(w io.Writer) error {
	var params bytes.Buffer
	if err := nn.SaveParams(&params, m.net); err != nil {
		return err
	}
	h := fnv.New64a()
	h.Write(params.Bytes())
	spec := m.spec
	spec.WeightsHash = h.Sum64()
	s := savedMC{Spec: spec, Params: params.Bytes()}
	if m.normMean != nil {
		s.NormMean = append([]float32(nil), m.normMean...)
		s.NormStd = make([]float32, len(m.normInvStd))
		for i, inv := range m.normInvStd {
			s.NormStd[i] = 1 / inv
		}
	}
	return gob.NewEncoder(w).Encode(&s)
}

// SaveFile writes the MC to path.
func (m *MC) SaveFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := m.Save(f); err != nil {
		return err
	}
	return f.Close()
}

// MCInfo reads just the spec header from a Save stream, without a
// base DNN to rebuild against — what the fleet controller needs to
// key deployment intent by name (and version) before shipping the
// bytes. Decoding into a spec-only view lets gob skip the weight
// payload instead of materializing it.
func MCInfo(r io.Reader) (Spec, error) {
	var s struct{ Spec Spec }
	if err := gob.NewDecoder(r).Decode(&s); err != nil {
		return Spec{}, fmt.Errorf("filter: decode MC: %w", err)
	}
	if s.Spec.Name == "" {
		return Spec{}, fmt.Errorf("filter: saved MC has no name")
	}
	return s.Spec, nil
}

// LoadMC reconstructs a microclassifier saved with Save against a base
// DNN and frame geometry, restoring weights and normalization. The
// base model and frame size must match the ones the MC was built for.
func LoadMC(r io.Reader, base *mobilenet.Model, frameW, frameH int) (*MC, error) {
	var s savedMC
	if err := gob.NewDecoder(r).Decode(&s); err != nil {
		return nil, fmt.Errorf("filter: decode MC: %w", err)
	}
	mc, err := NewMC(s.Spec, base, frameW, frameH)
	if err != nil {
		return nil, err
	}
	if err := nn.LoadParams(bytes.NewReader(s.Params), mc.net); err != nil {
		return nil, err
	}
	if s.NormMean != nil {
		if err := mc.SetNormalization(s.NormMean, s.NormStd); err != nil {
			return nil, err
		}
	}
	return mc, nil
}

// LoadMCFile reads an MC from path.
func LoadMCFile(path string, base *mobilenet.Model, frameW, frameH int) (*MC, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return LoadMC(f, base, frameW, frameH)
}
