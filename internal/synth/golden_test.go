package synth

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"testing"

	"blueskies/internal/analysis"
)

// Pinned digests of the scale-1000, seed-7 corpus. The determinism
// tests compare two runs of one build; these constants compare against
// every earlier build, so a generator rewrite that shifts a single RNG
// draw, float bit or formatted digit fails here.
const (
	goldenDatasetSHA    = "911c627ad8d1d023501bd7f13427f1f6feb251b69912a252d1a10fa75d2ce871"
	goldenPartitionsSHA = "001b4eb0dc9dfdc5be9e2ea12a54660f0b504819f2060a07aae2174cfc05f90f"
	goldenReportSHA     = "dfdce36e23c2a1337bf57009ddc48fb41b46adaf7e309b8b196452e2489c10b0"
)

func sha256Hex(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// TestGenerateGolden pins the generated bytes across builds: the
// JSON encoding of Generate's dataset, of GeneratePartitioned's
// datasets, and the rendered text of the full evaluation.
func TestGenerateGolden(t *testing.T) {
	cfg := Config{Scale: 1000, Seed: 7}
	ds := Generate(cfg)
	b, err := json.Marshal(ds)
	if err != nil {
		t.Fatal(err)
	}
	if got := sha256Hex(b); got != goldenDatasetSHA {
		t.Errorf("Generate dataset sha256 = %s, want %s", got, goldenDatasetSHA)
	}

	parts, _ := GeneratePartitioned(cfg, 3)
	b, err = json.Marshal(parts)
	if err != nil {
		t.Fatal(err)
	}
	if got := sha256Hex(b); got != goldenPartitionsSHA {
		t.Errorf("GeneratePartitioned datasets sha256 = %s, want %s", got, goldenPartitionsSHA)
	}

	report := analysis.RenderText(analysis.RunAll(ds, 0))
	if got := sha256Hex([]byte(report)); got != goldenReportSHA {
		t.Errorf("rendered report sha256 = %s, want %s", got, goldenReportSHA)
	}
}
