package service

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"hprefetch/internal/harness"
)

// TestResolveRunConfigParity pins ResolveRunConfig to the resolution
// the server performed before it was shared with the fleet: for a
// request covering each knob, the resolved RunConfig must be DeepEqual
// to the one recorded in testdata/resolved_run_configs.json (written by
// the pre-refactor server resolver, with the temporary trace file and
// directory spelled $FILE and $DIR). Recorded rejections must still be
// rejected with the same message, up to the registry list some of them
// append.
func TestResolveRunConfigParity(t *testing.T) {
	dir := t.TempDir()
	file := filepath.Join(dir, "gin.hpt")
	rec := harness.DefaultRunConfig()
	rec.WarmInstr, rec.MeasureInstr = 20_000, 30_000
	if _, err := harness.RecordTrace("gin", file, rec); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(filepath.Join("testdata", "resolved_run_configs.json"))
	if err != nil {
		t.Fatal(err)
	}
	var golden map[string]json.RawMessage
	if err := json.Unmarshal(raw, &golden); err != nil {
		t.Fatal(err)
	}
	subst := strings.NewReplacer("$FILE", file, "$DIR", dir)

	cases := []struct {
		name string
		req  RunRequest
	}{
		{"defaults", RunRequest{}},
		{"quick", RunRequest{Quick: true}},
		{"warm-measure", RunRequest{WarmInstr: 123_000, MeasureInstr: 456_000}},
		{"quick-warm", RunRequest{Quick: true, WarmInstr: 1000}},
		{"workloads", RunRequest{Workloads: []string{"gin", "echo"}}},
		{"fault", RunRequest{Fault: "tag-flip:0.002:7"}},
		{"fault-default-rate", RunRequest{Fault: "prefetch-drop"}},
		{"trace-file", RunRequest{TracePath: "$FILE"}},
		{"trace-dir", RunRequest{TracePath: "$DIR"}},
		{"sample", RunRequest{Sample: "1000,2000,3000,5"}},
		{"pf-degree", RunRequest{PFDegree: 4}},
		{"governed", RunRequest{Governed: true}},
		{"no-corpus", RunRequest{NoCorpus: true}},
		{"timeouts-retries", RunRequest{TimeoutMS: 5000, MaxRetries: 3}},
		{"combined", RunRequest{Quick: true, Workloads: []string{"gin"}, MeasureInstr: 900_000,
			Sample: "1000,2000,3000", PFDegree: 2, Governed: true, TracePath: "$DIR"}},
		{"bad-fault", RunRequest{Fault: "nope"}},
		{"bad-workloads", RunRequest{Workloads: []string{"gin", "nope"}}},
		{"bad-sample", RunRequest{Sample: "1,2"}},
		{"neg-degree", RunRequest{PFDegree: -1}},
		{"trace-missing", RunRequest{TracePath: "$DIR/missing.hpt"}},
		{"trace-and-fault", RunRequest{TracePath: "$FILE", Fault: "tag-flip"}},
	}
	if len(cases) != len(golden) {
		t.Fatalf("%d cases for %d recorded resolutions", len(cases), len(golden))
	}
	for _, c := range cases {
		rec, ok := golden[c.name]
		if !ok {
			t.Fatalf("%s: nothing recorded", c.name)
		}
		req := c.req
		req.TracePath = subst.Replace(req.TracePath)
		got, err := ResolveRunConfig(req)

		var wantErr struct{ Error string }
		if json.Unmarshal(rec, &wantErr) == nil && wantErr.Error != "" {
			want, _, _ := strings.Cut(subst.Replace(wantErr.Error), " (")
			if err == nil || !strings.HasPrefix(err.Error(), want) {
				t.Errorf("%s: err=%v, want one starting %q", c.name, err, want)
			}
			continue
		}
		if err != nil {
			t.Errorf("%s: %v", c.name, err)
			continue
		}
		var want harness.RunConfig
		if err := json.Unmarshal([]byte(subst.Replace(string(rec))), &want); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: resolved\n %+v\nwant\n %+v", c.name, got, want)
		}
	}
}
