package experiment

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"
)

// graphLayerDigests pins the SHA-256 of the graph-layer experiments'
// quick, seed-1 JSON output: exactly the bytes `onionsim -exp <id>
// -quick -seed 1 -json` prints, without the trailing newline. These
// experiments run almost entirely on internal/graph and internal/ddsr,
// so any change to adjacency order, tie-breaking or repair that moves a
// single output byte fails here, even when it moves every worker count
// the same way. The values were recorded with the map-backed graph the
// slice-backed one replaced.
var graphLayerDigests = []struct{ id, sha256 string }{
	{"fig3", "e7c7e48a3eb0dc432837e7505d5161f8d308ee9c4f982fbaa14d68b2950bb265"},
	{"fig4", "a9f574d1ad18ab88f3ef7419dd954ddccb564f943d2cf9a156e80f61082f8274"},
	{"fig5", "f7f76a2a517a5da3ae75355851e96b144db06c8f568325f82415c0355668cbb8"},
	{"fig6", "3ee37de8a2251ccf47f4a46548ad3029fb8fbdd8ce74b9029346ba5369ead58c"},
	{"ablation", "6c5656a1e4b0b053bd66ddbf8a5b480380a09fa5bf124a872cd2310974404243"},
}

func TestGraphLayerOutputDigests(t *testing.T) {
	for _, d := range graphLayerDigests {
		t.Run(d.id, func(t *testing.T) {
			trs, err := (&Runner{Parallel: 1}).Run([]Task{{
				Label: d.id, Experiment: d.id, Params: Params{Quick: true, Seed: 1},
			}})
			if err != nil {
				t.Fatal(err)
			}
			if trs[0].Err != nil {
				t.Fatal(trs[0].Err)
			}
			doc, err := ResultsJSON(trs[0].Results)
			if err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(doc)
			if got := hex.EncodeToString(sum[:]); got != d.sha256 {
				t.Errorf("sha256 of %s -quick -seed 1 -json = %s, want %s", d.id, got, d.sha256)
			}
		})
	}
}
