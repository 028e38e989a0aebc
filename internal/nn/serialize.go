package nn

import (
	"encoding/gob"
	"fmt"
	"io"
)

// savedParam is the on-disk form of one parameter tensor.
type savedParam struct {
	Name  string
	Shape []int
	Data  []float32
}

// savedNet is the on-disk form of a network's weights. Architectures
// are code, not data: a loader reconstructs the network with the same
// builder and then restores weights by parameter name.
type savedNet struct {
	NetName string
	Params  []savedParam
}

// SaveParams writes every parameter of net to w in gob format.
func SaveParams(w io.Writer, net *Network) error {
	s := savedNet{NetName: net.NetName}
	for _, p := range net.Params() {
		s.Params = append(s.Params, savedParam{
			Name:  p.Name,
			Shape: append([]int(nil), p.Value.Shape...),
			Data:  append([]float32(nil), p.Value.Data...),
		})
	}
	return gob.NewEncoder(w).Encode(&s)
}

// LoadParams restores parameters saved with SaveParams into net. Every
// saved parameter must exist in net with an identical shape, and every
// parameter of net must be present in the stream.
func LoadParams(r io.Reader, net *Network) error {
	var s savedNet
	if err := gob.NewDecoder(r).Decode(&s); err != nil {
		return fmt.Errorf("nn: decode params: %w", err)
	}
	byName := make(map[string]*Param)
	for _, p := range net.Params() {
		byName[p.Name] = p
	}
	seen := make(map[string]bool)
	for _, sp := range s.Params {
		p, ok := byName[sp.Name]
		if !ok {
			return fmt.Errorf("nn: saved parameter %q not present in network %q", sp.Name, net.NetName)
		}
		if len(sp.Data) != p.Value.Len() {
			return fmt.Errorf("nn: parameter %q size mismatch: saved %d, network %d", sp.Name, len(sp.Data), p.Value.Len())
		}
		copy(p.Value.Data, sp.Data)
		p.Touch()
		seen[sp.Name] = true
	}
	for name := range byName {
		if !seen[name] {
			return fmt.Errorf("nn: network parameter %q missing from saved stream", name)
		}
	}
	return nil
}
