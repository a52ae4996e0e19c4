package workloads_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	_ "hprefetch/internal/microsvc" // registers the chain-* workloads
	"hprefetch/internal/workloads"
)

var updateImages = flag.Bool("update", false, "rewrite testdata/image_sha256.json from the current build")

const imageGoldenPath = "testdata/image_sha256.json"

// imageDigest fingerprints one linked workload: the whole encoded image,
// and on its own the .bundles segment the analysis produces, so a drift
// in Algorithm 1 is told apart from a drift in generation or layout.
type imageDigest struct {
	Image   string `json:"image"`
	Bundles string `json:"bundles"`
}

func digestOf(b *workloads.Built) imageDigest {
	im := b.Linked.Image
	sum := sha256.Sum256(im.Marshal())
	h := sha256.New()
	var buf []byte
	buf = binary.LittleEndian.AppendUint64(buf, im.Bundles.Threshold)
	for _, e := range im.Bundles.Entries {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(e))
	}
	for _, a := range im.Bundles.TaggedAddrs {
		buf = binary.LittleEndian.AppendUint64(buf, uint64(a))
	}
	h.Write(buf)
	return imageDigest{Image: hex.EncodeToString(sum[:]), Bundles: hex.EncodeToString(h.Sum(nil))}
}

// TestImageGolden pins every workload's linked image byte for byte:
// build-path optimisations (reachability, layout indexing, generator
// allocation) must reproduce the committed hashes exactly. Refresh with
// `go test ./internal/workloads -run TestImageGolden -update` only for
// an intended change to what gets generated or linked.
func TestImageGolden(t *testing.T) {
	got := map[string]imageDigest{}
	for _, name := range workloads.AllSorted() {
		if strings.HasPrefix(name, gatedPrefix) {
			continue
		}
		b, err := workloads.Build(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got[name] = digestOf(b)
		workloads.DropCache() // bound memory: the large presets are hundreds of MB
	}
	if *updateImages {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.FromSlash(imageGoldenPath), append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s with %d workloads", imageGoldenPath, len(got))
		return
	}
	data, err := os.ReadFile(filepath.FromSlash(imageGoldenPath))
	if err != nil {
		t.Fatalf("reading image goldens (refresh with -update): %v", err)
	}
	var want map[string]imageDigest
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatalf("parsing %s: %v", imageGoldenPath, err)
	}
	if len(got) != len(want) {
		t.Errorf("%d workloads built, goldens hold %d", len(got), len(want))
	}
	for name, w := range want {
		if g, ok := got[name]; !ok {
			t.Errorf("%s: golden workload no longer registered", name)
		} else if g != w {
			t.Errorf("%s drifted:\n  golden: %+v\n  got:    %+v", name, w, g)
		}
	}
}
