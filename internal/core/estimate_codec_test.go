package core

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"math"
	"reflect"
	"strings"
	"testing"

	"osprey/internal/rng"
	"osprey/internal/rt"
	"osprey/internal/wastewater"
)

// codecEstimate is a small estimate whose draws are arbitrary float64 bit
// patterns: NaN payloads, infinities, negative zero and subnormals included.
func codecEstimate(nDraws, days int, seed uint64) *rt.Estimate {
	r := rng.New(seed)
	est := &rt.Estimate{
		Plant:          wastewater.ChicagoPlants()[0],
		Days:           make([]int, days),
		Median:         make([]float64, days),
		Lower:          make([]float64, days),
		Upper:          make([]float64, days),
		AcceptanceRate: 0.4375,
		MinESS:         123.25,
	}
	for d := range est.Days {
		est.Days[d] = d
		est.Median[d] = 1 + r.Float64()
		est.Lower[d] = est.Median[d] - r.Float64()
		est.Upper[d] = est.Median[d] + r.Float64()
	}
	special := []uint64{
		0x7FF8000000000001, 0xFFF0000000000000, 0x7FF0000000000000,
		0x8000000000000000, 0x0000000000000001, 0x7FF4000000000bad,
	}
	for k := 0; k < nDraws; k++ {
		row := make([]float64, days)
		for d := range row {
			bits := r.Uint64()
			if (k*days+d)%5 == 0 {
				bits = special[(k+d)%len(special)]
			}
			row[d] = math.Float64frombits(bits)
		}
		est.Draws = append(est.Draws, row)
	}
	return est
}

func TestEstimateCodecRoundTripExact(t *testing.T) {
	for _, shape := range [][2]int{{0, 0}, {0, 3}, {1, 1}, {7, 5}, {64, 33}} {
		est := codecEstimate(shape[0], shape[1], uint64(shape[0]*100+shape[1]))
		enc, err := encodeEstimate(est)
		if err != nil {
			t.Fatalf("%v: encode: %v", shape, err)
		}
		got, err := decodeEstimate(enc)
		if err != nil {
			t.Fatalf("%v: decode: %v", shape, err)
		}
		if len(got.Draws) != len(est.Draws) {
			t.Fatalf("%v: %d draws back, want %d", shape, len(got.Draws), len(est.Draws))
		}
		for k := range est.Draws {
			for d := range est.Draws[k] {
				if a, b := math.Float64bits(got.Draws[k][d]), math.Float64bits(est.Draws[k][d]); a != b {
					t.Fatalf("%v: draw %d day %d: bits %#x, want %#x", shape, k, d, a, b)
				}
			}
		}
		got.Draws, est.Draws = nil, nil
		if !reflect.DeepEqual(got, est) {
			t.Fatalf("%v: summary changed in the round trip:\n got %+v\nwant %+v", shape, got, est)
		}
	}
}

func TestEncodeEstimateRejectsMisshapenDraws(t *testing.T) {
	ragged := codecEstimate(3, 4, 1)
	ragged.Draws[1] = ragged.Draws[1][:3]
	if _, err := encodeEstimate(ragged); err == nil {
		t.Fatal("draw rows of different lengths encoded")
	}
	dayless := codecEstimate(0, 0, 2)
	dayless.Draws = [][]float64{{}}
	if _, err := encodeEstimate(dayless); err == nil {
		t.Fatal("draws without days encoded")
	}
}

// estimateFrame assembles an encoding field by field.
func estimateFrame(version byte, summary []byte, nDraws, days uint32, draws []byte) []byte {
	b := []byte{version}
	b = binary.LittleEndian.AppendUint32(b, uint32(len(summary)))
	b = append(b, summary...)
	b = binary.LittleEndian.AppendUint32(b, nDraws)
	b = binary.LittleEndian.AppendUint32(b, days)
	return append(b, draws...)
}

func TestDecodeEstimateRejectsMalformed(t *testing.T) {
	est := codecEstimate(3, 4, 3)
	good, err := encodeEstimate(est)
	if err != nil {
		t.Fatal(err)
	}
	counts := 5 + int(binary.LittleEndian.Uint32(good[1:])) // offset of nDraws
	summary, draws := good[5:counts], good[counts+8:]
	if !bytes.Equal(estimateFrame(estimateVersion, summary, 3, 4, draws), good) {
		t.Fatal("estimateFrame does not reproduce the encoding")
	}
	dayless, err := json.Marshal(&rt.Estimate{Days: []int{}})
	if err != nil {
		t.Fatal(err)
	}
	cat := func(parts ...[]byte) []byte { return bytes.Join(parts, nil) }
	cases := []struct {
		name, want string
		b          []byte
	}{
		{"empty", "truncated", nil},
		{"truncated header", "truncated", good[:3]},
		{"bad version", "version", estimateFrame(estimateVersion+1, summary, 3, 4, draws)},
		{"version zero", "version", estimateFrame(0, summary, 3, 4, draws)},
		{"summary length past the end", "summary truncated", cat(good[:1], []byte{0xff, 0xff, 0xff, 0xff}, good[5:])},
		{"truncated summary", "summary truncated", good[:counts-1]},
		{"summary not json", "summary:", estimateFrame(estimateVersion, []byte("{not json"), 3, 4, draws)},
		{"summary not canonical", "canonical", estimateFrame(estimateVersion, cat([]byte(" "), summary), 3, 4, draws)},
		{"summary carries draws", "carries draws", estimateFrame(estimateVersion, []byte(`{"Days":[0],"Draws":[[1]]}`), 0, 1, nil)},
		{"truncated draw header", "draw header truncated", good[:counts+5]},
		{"day count mismatch", "span", estimateFrame(estimateVersion, summary, 3, 5, draws)},
		{"day count max", "span", estimateFrame(estimateVersion, summary, 3, math.MaxUint32, draws)},
		{"truncated draws", "draw bytes", good[:len(good)-1]},
		{"one draw value short", "draw bytes", good[:len(good)-8]},
		{"trailing byte", "draw bytes", cat(good, []byte{0})},
		{"trailing float", "draw bytes", cat(good, make([]byte, 8))},
		{"draw count exceeds buffer", "draw bytes", estimateFrame(estimateVersion, summary, 4, 4, draws)},
		{"draw count max", "draw bytes", estimateFrame(estimateVersion, summary, math.MaxUint32, 4, draws)},
		{"no draws but bytes", "draw bytes", estimateFrame(estimateVersion, summary, 0, 4, draws)},
		{"draws without days", "draw bytes", estimateFrame(estimateVersion, dayless, math.MaxUint32, 0, nil)},
	}
	for _, c := range cases {
		got, err := decodeEstimate(c.b)
		if err == nil {
			t.Errorf("%s: accepted (%d draws)", c.name, len(got.Draws))
		} else if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: rejected with %q, want it to mention %q", c.name, err, c.want)
		}
	}
}

// FuzzDecodeEstimate: decoding never panics, and whatever it accepts
// re-encodes to exactly the input bytes — each estimate has one encoding.
func FuzzDecodeEstimate(f *testing.F) {
	for _, shape := range [][2]int{{0, 0}, {0, 2}, {2, 3}} {
		enc, err := encodeEstimate(codecEstimate(shape[0], shape[1], 7))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(enc)
		f.Add(enc[:len(enc)/2])
	}
	f.Add([]byte{estimateVersion, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, b []byte) {
		est, err := decodeEstimate(b)
		if err != nil {
			return
		}
		again, err := encodeEstimate(est)
		if err != nil {
			t.Fatalf("accepted estimate does not re-encode: %v", err)
		}
		if !bytes.Equal(again, b) {
			t.Fatalf("re-encoding differs:\n in %x\nout %x", b, again)
		}
	})
}
