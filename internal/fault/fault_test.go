package fault

import (
	"reflect"
	"strings"
	"testing"

	"hprefetch/internal/binfmt"
	"hprefetch/internal/isa"
	"hprefetch/internal/xrand"
)

// sampleSegment builds a plausible .bundles segment for perturbation.
func sampleSegment() binfmt.BundleSegment {
	seg := binfmt.BundleSegment{Threshold: 200 << 10}
	for i := 0; i < 400; i++ {
		seg.Entries = append(seg.Entries, isa.FuncID(i*3))
		seg.TaggedAddrs = append(seg.TaggedAddrs, isa.Addr(0x400000+i*0x40))
	}
	return seg
}

// signature drives every hook a few thousand times and hashes the
// decisions, giving one value that captures the injector's behaviour.
func signature(t *testing.T, cfg Config) uint64 {
	t.Helper()
	in, err := New(cfg)
	if err != nil {
		t.Fatalf("New(%+v): %v", cfg, err)
	}
	var h uint64
	seg := in.PerturbBundles(sampleSegment())
	h = xrand.Mix(h, seg.Threshold, uint64(len(seg.Entries)), uint64(len(seg.TaggedAddrs)))
	for _, a := range seg.TaggedAddrs {
		h = xrand.Mix(h, uint64(a))
	}
	for i := 0; i < 4096; i++ {
		if in.FlipTag() {
			h = xrand.Mix(h, 1, uint64(i))
		}
		if in.DropPrefetch() {
			h = xrand.Mix(h, 2, uint64(i))
		}
		h = xrand.Mix(h, 3, in.DelayPrefetch())
		h = xrand.Mix(h, 4, in.JitterLatency(50))
		h = xrand.Mix(h, 5, uint64(in.MSHRReserve(16)))
	}
	return h
}

// TestDeterminismPerClass proves every fault class replays identically
// for a fixed seed and diverges for a different seed.
func TestDeterminismPerClass(t *testing.T) {
	for _, c := range Classes() {
		c := c
		t.Run(string(c), func(t *testing.T) {
			cfg := Config{Class: c, Seed: 42}
			a, b := signature(t, cfg), signature(t, cfg)
			if a != b {
				t.Fatalf("class %s: same seed produced different fault patterns (%#x vs %#x)", c, a, b)
			}
			other := signature(t, Config{Class: c, Seed: 43})
			if other == a {
				t.Errorf("class %s: seed change did not change the fault pattern", c)
			}
		})
	}
}

// TestNoneInjectsNothing asserts the disabled injector is a strict
// no-op at every hook.
func TestNoneInjectsNothing(t *testing.T) {
	in, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	seg := sampleSegment()
	got := in.PerturbBundles(seg)
	if !reflect.DeepEqual(got, seg) {
		t.Error("ClassNone perturbed the bundle segment")
	}
	for i := 0; i < 1000; i++ {
		if in.FlipTag() || in.DropPrefetch() || in.DelayPrefetch() != 0 ||
			in.JitterLatency(50) != 50 || in.MSHRReserve(16) != 0 {
			t.Fatal("ClassNone injected a fault")
		}
	}
}

// TestPerturbBundlesEffects sanity-checks the bundle classes actually
// change the segment in the documented way.
func TestPerturbBundlesEffects(t *testing.T) {
	seg := sampleSegment()

	in, _ := New(Config{Class: ClassBundleCorrupt, Seed: 7})
	out := in.PerturbBundles(seg)
	if len(out.TaggedAddrs) >= len(seg.TaggedAddrs) {
		t.Errorf("bundle-corrupt did not truncate: %d -> %d tags", len(seg.TaggedAddrs), len(out.TaggedAddrs))
	}
	flipped := 0
	for i := range out.TaggedAddrs {
		if out.TaggedAddrs[i] != seg.TaggedAddrs[i] {
			flipped++
		}
	}
	if flipped == 0 {
		t.Error("bundle-corrupt flipped no tag bits")
	}
	// Repeated calls on one injector must agree (the hook re-derives its
	// stream from the seed).
	if again := in.PerturbBundles(seg); !reflect.DeepEqual(again, out) {
		t.Error("PerturbBundles is not idempotent across calls")
	}

	in, _ = New(Config{Class: ClassBundleStale, Seed: 7})
	out = in.PerturbBundles(seg)
	if len(out.TaggedAddrs) >= len(seg.TaggedAddrs) {
		t.Errorf("bundle-stale dropped no tags: %d -> %d", len(seg.TaggedAddrs), len(out.TaggedAddrs))
	}

	// Non-bundle classes must leave the segment untouched.
	in, _ = New(Config{Class: ClassTagFlip, Seed: 7})
	if out := in.PerturbBundles(seg); !reflect.DeepEqual(out, seg) {
		t.Error("tag-flip perturbed the bundle segment")
	}
}

// TestRatesRoughlyHonoured checks stochastic hooks track their
// configured rate within loose bounds.
func TestRatesRoughlyHonoured(t *testing.T) {
	const n = 200_000
	in, _ := New(Config{Class: ClassPrefetchDrop, Rate: 0.3, Seed: 1})
	drops := 0
	for i := 0; i < n; i++ {
		if in.DropPrefetch() {
			drops++
		}
	}
	got := float64(drops) / n
	if got < 0.27 || got > 0.33 {
		t.Errorf("prefetch-drop rate %.3f, want ~0.30", got)
	}

	in, _ = New(Config{Class: ClassMSHRStarve, Rate: 0.5, Seed: 1})
	starved := 0
	for i := 0; i < n; i++ {
		if in.MSHRReserve(16) > 0 {
			starved++
		}
	}
	got = float64(starved) / n
	if got < 0.45 || got > 0.55 {
		t.Errorf("mshr-starve duty %.3f, want ~0.50", got)
	}
}

func TestParseSpec(t *testing.T) {
	cases := []struct {
		in   string
		want Config
		err  string // substring of the expected error; "" = accepted
	}{
		{"", Config{}, ""},
		{"none", Config{}, ""},
		{"prefetch-drop", Config{Class: ClassPrefetchDrop}, ""},
		{"latency-jitter:0.4", Config{Class: ClassLatencyJitter, Rate: 0.4}, ""},
		{"tag-flip:0.001:99", Config{Class: ClassTagFlip, Rate: 0.001, Seed: 99}, ""},
		{"bundle-corrupt::7", Config{Class: ClassBundleCorrupt, Seed: 7}, ""},
		{"bogus", Config{}, "unknown class"},
		{"tag-flip:2", Config{}, "bad rate"},
		{"tag-flip:-0.5", Config{}, "bad rate"},
		{"tag-flip:NaN", Config{}, "bad rate"},
		{"tag-flip:nan:3", Config{}, "bad rate"},
		{"tag-flip:Inf", Config{}, "bad rate"},
		{"tag-flip:+Inf", Config{}, "bad rate"},
		{"tag-flip:-Inf", Config{}, "bad rate"},
		{"tag-flip:0.1:x", Config{}, "bad seed"},
		{"tag-flip:0.1:1:extra", Config{}, "malformed spec"},
	}
	for _, c := range cases {
		got, err := ParseSpec(c.in)
		if c.err != "" {
			if err == nil || !strings.Contains(err.Error(), c.err) {
				t.Errorf("ParseSpec(%q) = %+v, %v; want an error containing %q", c.in, got, err, c.err)
			}
			continue
		}
		if err != nil || got != c.want {
			t.Errorf("ParseSpec(%q) = %+v, %v; want %+v", c.in, got, err, c.want)
		}
	}
	for _, c := range Classes() {
		cfg, err := ParseSpec(string(c))
		if err != nil || cfg.Class != c {
			t.Errorf("ParseSpec(%q) = %+v, %v", c, cfg, err)
		}
		if cfg.EffectiveRate() <= 0 {
			t.Errorf("class %s has no default rate", c)
		}
	}
}

// TestServiceClasses covers the serving-layer chaos classes: parse,
// defaults, deterministic decision streams, and strict no-op behaviour
// at every simulator hook (they perturb the service, not the machine).
func TestServiceClasses(t *testing.T) {
	for _, c := range ServiceClasses() {
		if !c.Valid() {
			t.Errorf("service class %s not Valid()", c)
		}
		cfg, err := ParseSpec(string(c) + ":0.5:9")
		if err != nil || cfg.Class != c || cfg.Rate != 0.5 || cfg.Seed != 9 {
			t.Errorf("ParseSpec(%s:0.5:9) = %+v, %v", c, cfg, err)
		}
		if DefaultRate(c) <= 0 {
			t.Errorf("service class %s has no default rate", c)
		}
	}

	stream := func(seed uint64) (jobs, kills string) {
		inJ, _ := New(Config{Class: ClassJobTransient, Rate: 0.3, Seed: seed})
		inK, _ := New(Config{Class: ClassWorkerKill, Rate: 0.3, Seed: seed})
		var j, k []byte
		for i := 0; i < 256; i++ {
			j = append(j, byte('0'+b2i(inJ.FailJob())))
			k = append(k, byte('0'+b2i(inK.KillWorker())))
		}
		return string(j), string(k)
	}
	j1, k1 := stream(42)
	j2, k2 := stream(42)
	if j1 != j2 || k1 != k2 {
		t.Fatal("service chaos decisions are not deterministic for a fixed seed")
	}
	j3, k3 := stream(43)
	if j1 == j3 || k1 == k3 {
		t.Error("seed change did not change the service chaos pattern")
	}
	if !strings.ContainsRune(j1, '1') || !strings.ContainsRune(j1, '0') {
		t.Error("job-transient at rate 0.3 should mix failures and passes")
	}

	// Service classes are inert inside a simulation; simulator classes
	// are inert at the service hooks.
	in, _ := New(Config{Class: ClassJobTransient, Rate: 1, Seed: 1})
	seg := sampleSegment()
	if out := in.PerturbBundles(seg); !reflect.DeepEqual(out, seg) {
		t.Error("job-transient perturbed the bundle segment")
	}
	if in.FlipTag() || in.DropPrefetch() || in.DelayPrefetch() != 0 ||
		in.JitterLatency(50) != 50 || in.MSHRReserve(16) != 0 || in.KillWorker() {
		t.Error("job-transient leaked into a foreign hook")
	}
	sim, _ := New(Config{Class: ClassPrefetchDrop, Rate: 1, Seed: 1})
	if sim.FailJob() || sim.KillWorker() {
		t.Error("simulator class leaked into the service hooks")
	}
	none, _ := New(Config{})
	if none.FailJob() || none.KillWorker() {
		t.Error("ClassNone injected a service fault")
	}
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

func TestConfigString(t *testing.T) {
	if got := (Config{}).String(); got != "none" {
		t.Errorf("zero Config.String() = %q", got)
	}
	cfg := Config{Class: ClassPrefetchDrop, Rate: 0.3, Seed: 5}
	back, err := ParseSpec(cfg.String())
	if err != nil || back != cfg {
		t.Errorf("round trip %+v -> %q -> %+v (%v)", cfg, cfg.String(), back, err)
	}
}

func TestInvalidConfigRejected(t *testing.T) {
	for _, cfg := range []Config{
		{Class: "nope"},
		{Class: ClassTagFlip, Rate: 1.5},
		{Class: ClassTagFlip, Rate: -0.1},
	} {
		if _, err := New(cfg); err == nil {
			t.Errorf("New(%+v) accepted an invalid config", cfg)
		}
	}
}
