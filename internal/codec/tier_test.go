package codec

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/tensor"
	"repro/internal/vision"
)

// codecTier is one kernel tier the codec can run in this build
// (codecTiers lists them, generic first); use() selects it.
type codecTier struct {
	name string
	use  func()
}

// sameBlockBits reports the first position where got and want differ
// as bit patterns, or −1.
func sameBlockBits(got, want *block) int {
	for i, v := range got {
		if math.Float64bits(v) != math.Float64bits(want[i]) {
			return i
		}
	}
	return -1
}

// junkOutside returns b with every position nz does not name
// overwritten by a value an inverse transform must never read: NaN,
// ±Inf, −0, huge and tiny magnitudes, and ordinary numbers.
func junkOutside(g *tensor.RNG, b block, nz uint64) block {
	junk := []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 1e300, -5e-324, 17}
	for i := range b {
		if nz>>i&1 == 0 {
			b[i] = junk[g.Intn(len(junk))]
		}
	}
	return b
}

// randomMaps returns nz maps for the inverse transform: none, all,
// single positions, single rows and columns, and random ones from
// sparse to dense.
func randomMaps(g *tensor.RNG) []uint64 {
	maps := []uint64{0, math.MaxUint64, 1, 1 << 63, 0xff << 24, 0x0101010101010101 << 5}
	for density := 1; density <= 8; density++ {
		var nz uint64
		for i := 0; i < blockSize*blockSize; i++ {
			if g.Intn(9) < density {
				nz |= 1 << i
			}
		}
		maps = append(maps, nz)
	}
	return maps
}

// randomPlane returns a w×h plane of samples in [0,255], with
// fractions (a reconstruction is not integral) and the extremes.
func randomPlane(g *tensor.RNG, w, h int) *plane {
	p := refPlane(w, h)
	for i := range p.pix {
		switch g.Intn(16) {
		case 0:
			p.pix[i] = 0
		case 1:
			p.pix[i] = 255
		default:
			p.pix[i] = float32(g.Intn(256)) + float32(g.Intn(16))/16
		}
	}
	return p
}

// randomImage returns a w×h RGB image with values in [0,1], the ends
// included.
func randomImage(g *tensor.RNG, w, h int) *vision.Image {
	im := vision.NewImage(w, h)
	for i := range im.Pix {
		switch g.Intn(16) {
		case 0:
			im.Pix[i] = 0
		case 1:
			im.Pix[i] = 1
		default:
			im.Pix[i] = g.Float32()
		}
	}
	return im
}

// TestCodecTiersBitwiseEqual runs the codec's kernels on every tier
// this machine has and compares, with == on bits, each against the
// generic tier and the generic tier against the oracle of
// reference_test.go:
//   - the forward transform, on testBlocks;
//   - the inverse transform under maps from none to all coefficients,
//     with junk (NaN, ±Inf, −0, huge) in every position the map does
//     not name;
//   - the quantizer: the live set (nz), the levels, the bits, coded,
//     and the reconstructed residuals, at QPs from 1 to 400;
//   - codePlane, intra and predicted, and both colour conversions, at
//     sizes with and without whole blocks, whole vectors and chroma
//     pairs: 1×1, 7×9, 96×39, 97×41 and 48×20.
func TestCodecTiersBitwiseEqual(t *testing.T) {
	tiers := codecTiers(t)
	g := tensor.NewRNG(43)
	check := func(what string, tier codecTier, got, want *block) {
		t.Helper()
		if i := sameBlockBits(got, want); i >= 0 {
			t.Fatalf("%s on %s: [%d][%d] = %v (%#x), generic tier %v (%#x)", what, tier.name,
				i/blockSize, i%blockSize, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
	blocks := testBlocks()
	for bi, b := range blocks {
		want, ref := b, toRef(&b)
		fdctGo(&want)
		refFdct8x8(&ref)
		sameBlock(t, fmt.Sprintf("generic fdct block %d", bi), &want, &ref)
		for _, tier := range tiers {
			tier.use()
			got := b
			fdct8x8(&got)
			check(fmt.Sprintf("fdct block %d", bi), tier, &got, &want)
		}

		for _, nz := range randomMaps(g) {
			named := b
			for i := range named {
				if nz>>i&1 == 0 {
					named[i] = 0
				}
			}
			ref := toRef(&named)
			refIdct8x8(&ref)
			junked := junkOutside(g, b, nz)
			want := junked
			idctGo(&want, nz)
			sameBlock(t, fmt.Sprintf("generic idct block %d map %#x", bi, nz), &want, &ref)
			for _, tier := range tiers {
				tier.use()
				got := junked
				idct8x8(&got, nz)
				check(fmt.Sprintf("idct block %d map %#x", bi, nz), tier, &got, &want)
			}
		}

		for _, qp := range []float64{1, 2.5, 7, 40, 133.7, 400} {
			var st stepTable
			st.set(qp)
			wantT := b
			fdctGo(&wantT)
			wantNz := liveGo(&wantT, &st)
			wantLevels := wantT
			wantSize := codeLevels(&wantLevels, &st, wantNz)
			for _, tier := range tiers {
				tier.use()
				what := fmt.Sprintf("quantizeBlock block %d qp %v", bi, qp)
				gotT := b
				fdct8x8(&gotT)
				if nz := liveMask(&gotT, &st); nz != wantNz {
					t.Fatalf("%s on %s: nz %#x, generic tier %#x", what, tier.name, nz, wantNz)
				}
				if size := codeLevels(&gotT, &st, wantNz); size != wantSize {
					t.Fatalf("%s on %s: levels cost %d bits, generic tier %d", what, tier.name, size, wantSize)
				}
				check(what+" levels", tier, &gotT, &wantLevels)
				checkQuantize(t, b, qp)
			}
		}
	}

	type dims struct{ w, h int }
	for _, sz := range []dims{{1, 1}, {7, 9}, {96, 39}, {97, 41}, {48, 20}} {
		src := randomPlane(g, sz.w, sz.h)
		pred := randomPlane(g, sz.w, sz.h)
		for _, qp := range []float64{1, 40, 400} {
			var st stepTable
			st.set(qp)
			for _, p := range []*plane{nil, pred} {
				what := fmt.Sprintf("codePlane %dx%d qp %v intra %v", sz.w, sz.h, qp, p == nil)
				refRecon := refPlane(sz.w, sz.h)
				wantBits := refCodePlane(src, p, refRecon, qp)
				for _, tier := range tiers {
					tier.use()
					recon := refPlane(sz.w, sz.h)
					if bits := codePlane(src, p, recon, &st); bits != wantBits {
						t.Fatalf("%s on %s: %d bits, reference %d", what, tier.name, bits, wantBits)
					}
					for i, v := range recon.pix {
						if math.Float32bits(v) != math.Float32bits(refRecon.pix[i]) {
							t.Fatalf("%s on %s: sample (%d,%d) = %v, reference %v", what, tier.name, i%sz.w, i/sz.w, v, refRecon.pix[i])
						}
					}
				}
			}
		}

		im := randomImage(g, sz.w, sz.h)
		sy, scb, scr := refToYCbCr(im)
		wantRGB := refFromYCbCr(sy, scb, scr)
		for _, tier := range tiers {
			tier.use()
			what := fmt.Sprintf("%dx%d on %s", sz.w, sz.h, tier.name)
			p := newPlanes(sz.w, sz.h)
			toYCbCr(im, &p)
			samePlanes(t, "toYCbCr "+what, &p, sy, scb, scr)
			// A reused image: every stale sample must be overwritten.
			back := vision.NewImage(sz.w, sz.h)
			for i := range back.Pix {
				back.Pix[i] = float32(math.NaN())
			}
			fromYCbCr(&p, back)
			for i, v := range back.Pix {
				if math.Float32bits(v) != math.Float32bits(wantRGB.Pix[i]) {
					t.Fatalf("fromYCbCr %s: value %d = %v, reference %v", what, i, v, wantRGB.Pix[i])
				}
			}
		}
	}
	names := make([]string, len(tiers))
	for i, tier := range tiers {
		names[i] = tier.name
	}
	t.Logf("codec tiers covered: %s", strings.Join(names, " "))
}

// TestTranspose8 pins the bit-matrix transpose idctGo reads its map
// through.
func TestTranspose8(t *testing.T) {
	g := tensor.NewRNG(44)
	for range 100 {
		m := uint64(g.Intn(1<<31))<<33 ^ uint64(g.Intn(1<<31))<<2 ^ uint64(g.Intn(4))
		var want uint64
		for r := 0; r < blockSize; r++ {
			for c := 0; c < blockSize; c++ {
				want |= (m >> (c*blockSize + r) & 1) << (r*blockSize + c)
			}
		}
		if got := transpose8(m); got != want {
			t.Fatalf("transpose8(%#x) = %#x, want %#x", m, got, want)
		}
	}
}
