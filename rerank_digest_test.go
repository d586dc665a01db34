package sizelos

// The re-rank float-program digest: a refactor of the residual push must
// not change the sequence of floating-point operations, and this is how to
// show it. Run the test at the old commit (copy this file into a clone of
// it if it predates the file) and at the new one with SIZELOS_DIGEST_OUT
// naming a file; it drives one seeded mutgen stream — every batch
// re-ranked, engine defaults, DBLP and TPC-H — and writes two SHA-256s per
// re-rank, one over every setting's raw score vectors (ExportState) and one
// over the normalized scores queries are served (Engine.Scores). Besides
// the residual push from captured rows and from sweeps, the stream takes a
// compaction, a budget-trip fallback and a restore at fixed batches. It
// reads only what the previous commit already has, so the file runs there
// unedited. The two files must be identical. Digests are never committed: FMA fusion makes them
// architecture-specific. `make rerank-digest BASE=<rev>` does all of it
// against a scratch copy of the base.
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
	"sizelos/internal/relational"
)

// The stream's milestones, by batch index: each takes a path a plain
// re-rank never does, so the digests cover it too.
const (
	digestBatches     = 480
	digestAutoCompact = 120 // under a policy that compacts any tombstone
	digestBudgetTrip  = 240 // under a one-push budget: the warm full iteration
	digestRestore     = 400 // restored from ExportState before the batch
)

func TestRerankStreamDigest(t *testing.T) {
	path := os.Getenv("SIZELOS_DIGEST_OUT")
	if path == "" {
		t.Skip("set SIZELOS_DIGEST_OUT=<file> to write the per-re-rank score digests")
	}
	datasets := []struct {
		name    string
		open    func() (*Engine, error)
		restore func(*EngineState) (*Engine, error)
	}{
		{"dblp", func() (*Engine, error) { return OpenDBLP(datagen.DefaultDBLPConfig()) }, RestoreDBLP},
		{"tpch", func() (*Engine, error) { return OpenTPCH(datagen.DefaultTPCHConfig()) }, RestoreTPCH},
	}
	var out strings.Builder
	for _, dataset := range datasets {
		ds := dataset.name
		eng, err := dataset.open()
		if err != nil {
			t.Fatalf("%s: %v", ds, err)
		}
		// The generator reads the store it was made over, so from
		// digestRestore on the survivor takes every batch too.
		survivor := eng
		gen := mutgen.New(survivor.DB(), 0xD16E57)
		var st *EngineState
		pushes, rounds, fallbacks, compactions, restores := 0, 0, 0, 0, 0
		for i := 0; i < digestBatches; i++ {
			switch i {
			case digestAutoCompact:
				eng.compactMin, eng.compactRatio = 1, 0.0001
			case digestBudgetTrip:
				eng.residualBudget = 1
			case digestRestore:
				if eng, err = dataset.restore(throughGob(t, st)); err != nil {
					t.Fatalf("%s batch %d: restore: %v", ds, i, err)
				}
				restores++
			}
			batch := toMutationBatch(gen.NextBatch())
			batch.Rerank = true
			if eng != survivor {
				if _, err := survivor.Mutate(batch); err != nil {
					t.Fatalf("%s batch %d on the survivor: %v", ds, i, err)
				}
			}
			res, err := eng.Mutate(batch)
			if err != nil {
				t.Fatalf("%s batch %d: %v", ds, i, err)
			}
			for _, st := range res.RerankStats {
				pushes += st.Pushes
				rounds += st.Rounds
				if st.FallbackTaken {
					fallbacks++
				}
			}
			compactions += len(res.Compacted)
			switch i {
			case digestAutoCompact:
				eng.compactMin, eng.compactRatio = DefaultCompactMinTombstones, DefaultCompactRatio
			case digestBudgetTrip:
				eng.residualBudget = 0
			}
			if st, _, err = eng.ExportState(); err != nil {
				t.Fatalf("%s batch %d: ExportState: %v", ds, i, err)
			}
			served := make(map[string]relational.DBScores)
			for _, name := range eng.SettingNames() {
				if served[name], err = eng.Scores(name); err != nil {
					t.Fatalf("%s batch %d: Scores(%s): %v", ds, i, name, err)
				}
			}
			fmt.Fprintf(&out, "%s batch=%03d raw=%x served=%x\n", ds, i,
				scoreDigest(eng, st.RawScores), scoreDigest(eng, served))
		}
		t.Logf("%s: %d re-ranks, %d pushes in %d rounds, %d fallbacks, %d compactions, %d restores",
			ds, digestBatches, pushes, rounds, fallbacks, compactions, restores)
		if fallbacks == 0 || compactions == 0 || restores == 0 {
			t.Errorf("%s: the stream missed a path: %d fallbacks, %d compactions, %d restores",
				ds, fallbacks, compactions, restores)
		}
	}
	if err := os.WriteFile(path, []byte(out.String()), 0o644); err != nil {
		t.Fatal(err)
	}
}

// scoreDigest hashes every setting's score vectors in a per-setting table,
// settings and relations in name order, each float by its IEEE-754 bits.
func scoreDigest(e *Engine, table map[string]relational.DBScores) [sha256.Size]byte {
	h := sha256.New()
	var buf [8]byte
	for _, name := range e.SettingNames() {
		scores := table[name]
		rels := make([]string, 0, len(scores))
		for rel := range scores {
			rels = append(rels, rel)
		}
		sort.Strings(rels)
		h.Write([]byte(name))
		for _, rel := range rels {
			h.Write([]byte(rel))
			for _, v := range scores[rel] {
				binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
				h.Write(buf[:])
			}
		}
	}
	return [sha256.Size]byte(h.Sum(nil))
}
