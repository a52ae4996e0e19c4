// Package fault is the deterministic fault-injection layer for the
// software→hardware Bundle channel. The paper's mechanism trusts
// link-time metadata at runtime (§5.2); in a production deployment that
// trust can be violated — a rebuilt binary paired with a stale Bundle
// table, a flipped tag bit, a dropped or delayed prefetch, a memory
// system under pressure. The injector perturbs every layer of that
// channel so the degradation experiments can demonstrate the contract
// the prefetcher must keep: degrade to FDIP, never worse, never crash.
//
// Every decision flows from a seeded xrand stream, one independent
// stream per hook, so a (Config, call-sequence) pair always reproduces
// the identical fault pattern and one hook's consumption never shifts
// another's — the same property that makes the rest of the simulator
// deterministic.
package fault

import (
	"fmt"
	"strconv"
	"strings"

	"hprefetch/internal/binfmt"
	"hprefetch/internal/isa"
	"hprefetch/internal/xrand"
)

// Class names one fault class.
type Class string

const (
	// ClassNone injects nothing (the zero value).
	ClassNone Class = ""
	// ClassBundleCorrupt flips tag-address bits and truncates the
	// .bundles segment before loading (bit rot, torn writes).
	ClassBundleCorrupt Class = "bundle-corrupt"
	// ClassBundleStale pairs the binary with a Bundle table from an
	// older build: a fraction of tags shifted by a constant layout skew,
	// a fraction dropped entirely (renamed or deleted functions).
	ClassBundleStale Class = "bundle-stale"
	// ClassTagFlip flips the Bundle-entry bit on retired instructions at
	// runtime (soft errors in the reserved bit).
	ClassTagFlip Class = "tag-flip"
	// ClassPrefetchDrop drops or delays individual prefetch issues at
	// the sim.Machine boundary (interconnect pressure).
	ClassPrefetchDrop Class = "prefetch-drop"
	// ClassLatencyJitter multiplies LLC/DRAM fill latency on a fraction
	// of fills (co-runner interference).
	ClassLatencyJitter Class = "latency-jitter"
	// ClassMSHRStarve periodically reserves most of the MSHR file,
	// starving asynchronous fills (demand traffic from sibling threads).
	ClassMSHRStarve Class = "mshr-starve"

	// Service-level classes perturb the serving layer rather than the
	// simulated machine: the chaos harness composes them with the
	// simulator classes above to prove jobs survive infrastructure
	// failures. They are no-ops inside a simulation.

	// ClassJobTransient makes a job execution fail with a retryable
	// (transient) error before the simulation starts — a stand-in for an
	// environmental blip: an OOM kill, a filesystem hiccup, a dependency
	// timeout.
	ClassJobTransient Class = "job-transient"
	// ClassWorkerKill panics the worker goroutine mid-job (the recovered
	// equivalent of a worker process dying under the scheduler).
	ClassWorkerKill Class = "worker-kill"
)

// Classes returns every injectable fault class, in documentation order.
func Classes() []Class {
	return []Class{
		ClassBundleCorrupt, ClassBundleStale, ClassTagFlip,
		ClassPrefetchDrop, ClassLatencyJitter, ClassMSHRStarve,
	}
}

// ServiceClasses returns the serving-layer fault classes, injected by
// the job service (hpserved -chaos) rather than the simulator.
func ServiceClasses() []Class {
	return []Class{ClassJobTransient, ClassWorkerKill}
}

// Valid reports whether c is ClassNone or a known injectable class.
func (c Class) Valid() bool {
	if c == ClassNone {
		return true
	}
	for _, k := range Classes() {
		if c == k {
			return true
		}
	}
	for _, k := range ServiceClasses() {
		if c == k {
			return true
		}
	}
	for _, k := range StorageClasses() {
		if c == k {
			return true
		}
	}
	return false
}

// DefaultRate returns the class's default intensity, chosen to be
// clearly visible in the degradation table without being a caricature.
func DefaultRate(c Class) float64 {
	switch c {
	case ClassBundleCorrupt:
		return 0.25 // fraction of tagged addresses bit-flipped
	case ClassBundleStale:
		return 0.35 // fraction of tags skewed or dropped
	case ClassTagFlip:
		return 0.0005 // per-retired-event flip probability
	case ClassPrefetchDrop:
		return 0.30 // per-prefetch drop probability
	case ClassLatencyJitter:
		return 0.25 // per-fill jitter probability
	case ClassMSHRStarve:
		return 0.50 // duty fraction of time starved
	case ClassJobTransient:
		return 0.20 // per-attempt transient failure probability
	case ClassWorkerKill:
		return 0.05 // per-attempt worker panic probability
	case ClassTraceBitRot:
		return 0.25 // per-frame single-bit-flip probability
	case ClassTraceTornTail:
		return 0.25 // fraction of trailing frames lost with the tail
	case ClassTraceTruncFrame:
		return 0.50 // (unused position knob) seeded cut inside a frame
	case ClassTraceSwapFrames:
		return 0.50 // (unused position knob) seeded adjacent-frame swap
	}
	return 0
}

// Config selects a fault class, its intensity, and the injection seed.
// The zero value injects nothing, so it can live inside other
// configuration structs without ceremony.
type Config struct {
	// Class is the fault class (ClassNone = disabled).
	Class Class
	// Rate is the class-specific intensity in (0,1]; 0 selects
	// DefaultRate(Class).
	Rate float64
	// Seed drives every injection decision.
	Seed uint64
}

// Enabled reports whether the configuration injects anything.
func (c Config) Enabled() bool { return c.Class != ClassNone }

// EffectiveRate resolves the configured or default intensity.
func (c Config) EffectiveRate() float64 {
	if c.Rate > 0 {
		return c.Rate
	}
	return DefaultRate(c.Class)
}

// String renders the spec form accepted by ParseSpec.
func (c Config) String() string {
	if !c.Enabled() {
		return "none"
	}
	return fmt.Sprintf("%s:%g:%d", c.Class, c.EffectiveRate(), c.Seed)
}

// ParseSpec parses the CLI spec "class[:rate[:seed]]"; "none" and the
// empty string disable injection.
func ParseSpec(s string) (Config, error) {
	s = strings.TrimSpace(s)
	if s == "" || s == "none" {
		return Config{}, nil
	}
	parts := strings.Split(s, ":")
	cfg := Config{Class: Class(parts[0])}
	if !cfg.Valid() || !cfg.Enabled() {
		return Config{}, fmt.Errorf("fault: unknown class %q (valid: %v)",
			parts[0], append(append(Classes(), ServiceClasses()...), StorageClasses()...))
	}
	if len(parts) >= 2 && parts[1] != "" {
		r, err := strconv.ParseFloat(parts[1], 64)
		// Written so that NaN, which fails every comparison, is rejected.
		if err != nil || !(r >= 0 && r <= 1) {
			return Config{}, fmt.Errorf("fault: bad rate %q (want 0..1)", parts[1])
		}
		cfg.Rate = r
	}
	if len(parts) >= 3 {
		seed, err := strconv.ParseUint(parts[2], 0, 64)
		if err != nil {
			return Config{}, fmt.Errorf("fault: bad seed %q", parts[2])
		}
		cfg.Seed = seed
	}
	if len(parts) > 3 {
		return Config{}, fmt.Errorf("fault: malformed spec %q (want class[:rate[:seed]])", s)
	}
	return cfg, nil
}

// Valid reports whether the configuration names a known class with a
// sane rate.
func (c Config) Valid() bool {
	return c.Class.Valid() && c.Rate >= 0 && c.Rate <= 1
}

// Per-hook sub-seed salts: each hook draws from its own stream so the
// decision sequences are mutually independent.
const (
	saltBundle = 0xB0B1
	saltTag    = 0x7A67
	saltDrop   = 0xD309
	saltDelay  = 0xDE1A
	saltLat    = 0x1A77
	saltStarve = 0x57A4
	saltJob    = 0x10B5
	saltKill   = 0x6B11
)

// Injector makes the injection decisions for one simulated run. It is
// not safe for concurrent use; every run builds its own.
type Injector struct {
	cfg  Config
	rate float64

	tag   *xrand.RNG
	drop  *xrand.RNG
	delay *xrand.RNG
	lat   *xrand.RNG
	job   *xrand.RNG
	kill  *xrand.RNG

	starveTick  uint64
	starvePhase uint64
}

// starvePeriod is the MSHR starvation duty-cycle period in occupancy
// queries; bursts this long alternate with free intervals.
const starvePeriod = 4096

// New builds an injector for cfg. A ClassNone config yields a valid
// injector whose every hook is a no-op.
func New(cfg Config) (*Injector, error) {
	if !cfg.Valid() {
		return nil, fmt.Errorf("fault: invalid config %+v", cfg)
	}
	return &Injector{
		cfg:         cfg,
		rate:        cfg.EffectiveRate(),
		tag:         xrand.New(xrand.Mix(cfg.Seed, saltTag)),
		drop:        xrand.New(xrand.Mix(cfg.Seed, saltDrop)),
		delay:       xrand.New(xrand.Mix(cfg.Seed, saltDelay)),
		lat:         xrand.New(xrand.Mix(cfg.Seed, saltLat)),
		job:         xrand.New(xrand.Mix(cfg.Seed, saltJob)),
		kill:        xrand.New(xrand.Mix(cfg.Seed, saltKill)),
		starvePhase: xrand.Mix(cfg.Seed, saltStarve) % starvePeriod,
	}, nil
}

// Config returns the injector's configuration.
func (in *Injector) Config() Config { return in.cfg }

// PerturbBundles returns a perturbed deep copy of the .bundles segment
// — the pre-load corruption hook. It draws from a fresh stream derived
// from the seed alone, so repeated calls produce identical output.
func (in *Injector) PerturbBundles(seg binfmt.BundleSegment) binfmt.BundleSegment {
	out := binfmt.BundleSegment{
		Threshold:   seg.Threshold,
		Entries:     append([]isa.FuncID(nil), seg.Entries...),
		TaggedAddrs: append([]isa.Addr(nil), seg.TaggedAddrs...),
	}
	rng := xrand.New(xrand.Mix(in.cfg.Seed, saltBundle))
	switch in.cfg.Class {
	case ClassBundleCorrupt:
		// Bit rot: flip a low address bit on a fraction of tags, then
		// lose the segment tail (a torn write truncates the table).
		for i := range out.TaggedAddrs {
			if rng.Bool(in.rate) {
				bit := uint(rng.Range(2, 11))
				out.TaggedAddrs[i] ^= isa.Addr(1) << bit
			}
		}
		cut := len(out.TaggedAddrs) - int(float64(len(out.TaggedAddrs))*in.rate/2)
		out.TaggedAddrs = out.TaggedAddrs[:cut]
	case ClassBundleStale:
		// Old-build table: a constant layout skew moves a fraction of
		// the tags off their instructions; another fraction vanished in
		// the rebuild.
		skew := isa.Addr(rng.Range(1, 16)) * isa.InstrSize
		kept := out.TaggedAddrs[:0]
		for _, a := range out.TaggedAddrs {
			switch {
			case rng.Bool(in.rate / 2): // dropped
			case rng.Bool(in.rate):
				kept = append(kept, a+skew)
			default:
				kept = append(kept, a)
			}
		}
		out.TaggedAddrs = kept
	}
	return out
}

// FlipTag reports whether the current retired event's Bundle-entry bit
// should be inverted.
func (in *Injector) FlipTag() bool {
	if in.cfg.Class != ClassTagFlip {
		return false
	}
	return in.tag.Bool(in.rate)
}

// DropPrefetch reports whether the current prefetch issue should be
// dropped at the machine boundary.
func (in *Injector) DropPrefetch() bool {
	if in.cfg.Class != ClassPrefetchDrop {
		return false
	}
	return in.drop.Bool(in.rate)
}

// DelayPrefetch returns extra fill latency in cycles for a surviving
// prefetch issue (0 = on time).
func (in *Injector) DelayPrefetch() uint64 {
	if in.cfg.Class != ClassPrefetchDrop {
		return 0
	}
	if !in.delay.Bool(in.rate / 2) {
		return 0
	}
	return uint64(in.delay.Range(20, 120))
}

// JitterLatency perturbs an LLC/memory fill latency (cycles): a
// fraction of fills pay a 2-4x interference multiplier.
func (in *Injector) JitterLatency(lat uint64) uint64 {
	if in.cfg.Class != ClassLatencyJitter {
		return lat
	}
	if !in.lat.Bool(in.rate) {
		return lat
	}
	return lat * uint64(in.lat.Range(2, 4))
}

// FailJob reports whether the current job attempt should fail with a
// synthetic transient error (service-level chaos).
func (in *Injector) FailJob() bool {
	if in.cfg.Class != ClassJobTransient {
		return false
	}
	return in.job.Bool(in.rate)
}

// KillWorker reports whether the current job attempt should panic its
// worker goroutine (service-level chaos).
func (in *Injector) KillWorker() bool {
	if in.cfg.Class != ClassWorkerKill {
		return false
	}
	return in.kill.Bool(in.rate)
}

// MSHRReserve returns how many of the capacity MSHR entries are
// currently held by the injected co-runner. The starvation follows a
// deterministic duty cycle over occupancy queries, with a seed-derived
// phase; at least one entry is always left usable.
func (in *Injector) MSHRReserve(capacity int) int {
	if in.cfg.Class != ClassMSHRStarve || capacity <= 1 {
		return 0
	}
	pos := (in.starveTick + in.starvePhase) % starvePeriod
	in.starveTick++
	if float64(pos) < in.rate*starvePeriod {
		return capacity - 1
	}
	return 0
}
