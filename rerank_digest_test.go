package sizelos

// The re-rank float-program digest: a refactor of the residual push must
// not change the sequence of floating-point operations, and this is how to
// show it. Run the test at the old commit (copy this file into a clone of
// it if it predates the file) and at the new one with SIZELOS_DIGEST_OUT
// naming a file; it drives one seeded mutgen stream —
// every batch re-ranked, engine defaults, residual workers 1 and 4, DBLP
// and TPC-H — and writes one SHA-256 per re-rank over every setting's raw
// score vectors. The two files must be identical. Digests are never
// committed: FMA fusion makes them architecture-specific.
//
//	SIZELOS_DIGEST_OUT=/tmp/new.txt go test -run TestRerankStreamDigest .

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"sort"
	"strings"
	"testing"

	"sizelos/internal/datagen"
	"sizelos/internal/mutgen"
)

const digestBatches = 240

func TestRerankStreamDigest(t *testing.T) {
	path := os.Getenv("SIZELOS_DIGEST_OUT")
	if path == "" {
		t.Skip("set SIZELOS_DIGEST_OUT=<file> to write the per-re-rank score digests")
	}
	datasets := []struct {
		name string
		open func() (*Engine, error)
	}{
		{"dblp", func() (*Engine, error) { return OpenDBLP(datagen.DefaultDBLPConfig()) }},
		{"tpch", func() (*Engine, error) { return OpenTPCH(datagen.DefaultTPCHConfig()) }},
	}
	var out strings.Builder
	for _, dataset := range datasets {
		ds := dataset.name
		for _, workers := range []int{1, 4} {
			eng, err := dataset.open()
			if err != nil {
				t.Fatalf("%s: %v", ds, err)
			}
			eng.residualWorkers = workers
			gen := mutgen.New(eng.DB(), 0xD16E57)
			pushes, rounds, fallbacks, compactions := 0, 0, 0, 0
			for i := 0; i < digestBatches; i++ {
				batch := toMutationBatch(gen.NextBatch())
				batch.Rerank = true
				res, err := eng.Mutate(batch)
				if err != nil {
					t.Fatalf("%s workers=%d batch %d: %v", ds, workers, i, err)
				}
				for _, st := range res.RerankStats {
					pushes += st.Pushes
					rounds += st.Rounds
					if st.FallbackTaken {
						fallbacks++
					}
				}
				compactions += len(res.Compacted)
				fmt.Fprintf(&out, "%s w=%d batch=%03d %x\n", ds, workers, i, rawScoreDigest(eng))
			}
			t.Logf("%s workers=%d: %d batches, %d pushes in %d rounds, %d fallbacks, %d compactions",
				ds, workers, digestBatches, pushes, rounds, fallbacks, compactions)
		}
	}
	if err := os.WriteFile(path, []byte(out.String()), 0o644); err != nil {
		t.Fatal(err)
	}
}

// rawScoreDigest hashes every setting's raw (unnormalized) score vectors,
// settings and relations in name order, each float by its IEEE-754 bits.
func rawScoreDigest(e *Engine) [sha256.Size]byte {
	h := sha256.New()
	var buf [8]byte
	for _, name := range e.SettingNames() {
		raw := e.rawScores[name]
		rels := make([]string, 0, len(raw))
		for rel := range raw {
			rels = append(rels, rel)
		}
		sort.Strings(rels)
		h.Write([]byte(name))
		for _, rel := range rels {
			h.Write([]byte(rel))
			for _, v := range raw[rel] {
				binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
				h.Write(buf[:])
			}
		}
	}
	return [sha256.Size]byte(h.Sum(nil))
}
