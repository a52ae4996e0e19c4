// Package workloads defines the eleven server-application configurations
// evaluated in the paper (§6.2) — three Go web frameworks (beego, gin,
// echo), the Caddy web server, the DGraph graph database, the gorm ORM,
// and database/OLTP setups (MySQL and TiDB under sysbench, TPC-C, YCSB
// and sibench) — as presets of the synthetic program generator, scaled to
// echo each application's structural character: function counts and
// static-bundle fractions in the neighbourhood of Table 4, pipeline
// shapes following each system's request flow, and request mixes
// following each benchmark driver.
//
// Every experiment reuses the same few linked programs, and the largest
// presets have hundreds of thousands of functions, so Build memoises per
// name with single-flight: each name is built once, and different names
// build in parallel.
package workloads

import (
	"fmt"
	"sort"
	"sync"

	"hprefetch/internal/isa"
	"hprefetch/internal/linker"
	"hprefetch/internal/loader"
	"hprefetch/internal/program"
	"hprefetch/internal/trace"
)

// Engine is the event-stream interface a workload's engine produces:
// sim.EventSource plus the sim.RequestMarker per-request marks.
// trace.Engine satisfies it; registered workloads may substitute their
// own implementation (e.g. the microservice interleaver).
type Engine interface {
	Next() isa.BlockEvent
	Instructions() uint64
	Requests() uint64
	CurrentType() int
	Stage() int16
	Depth() int
	CurrentRequest() uint64
	RequestDone() bool
}

// Workload couples a generator preset with its driver parameters.
type Workload struct {
	// Name is the benchmark name used throughout the paper's figures.
	Name string
	// Config is the program-generator preset.
	Config program.Config
	// TraceSeed drives the request stream (fixed per workload so every
	// experiment sees the same execution).
	TraceSeed uint64
	// Generator, when non-nil, replaces program.Generate(Config) as the
	// program builder (chain workloads use program.GenerateChain).
	Generator func() (*program.Program, error)
	// EngineFactory, when non-nil, replaces trace.New as the execution
	// engine over a loaded image (the microservice suite substitutes its
	// open-loop interleaver here).
	EngineFactory func(ld *loader.Loaded, seed uint64) Engine
}

// Names returns all workload names in the paper's figure order.
func Names() []string {
	return []string{
		"beego", "caddy", "dgraph", "echo", "gin", "gorm",
		"mysql-sysbench", "tidb-sysbench", "tidb-tpcc", "mysql-ycsb", "mysql-sibench",
	}
}

// Table4Names returns the eight binaries of Table 4 (per-binary static
// statistics; the three extra driver variants share binaries).
func Table4Names() []string {
	return []string{"beego", "caddy", "dgraph", "echo", "gin", "gorm", "mysql-sysbench", "tidb-sysbench"}
}

// base returns the shared preset all workloads derive from.
func base(name string, seed uint64) program.Config {
	cfg := program.DefaultConfig()
	cfg.Name = name
	cfg.Seed = seed
	return cfg
}

// Get returns the workload preset by name: a builtin paper preset, or
// a registered extension workload.
func Get(name string) (Workload, error) {
	if w, err := builtin(name); err == nil {
		return w, nil
	}
	regMu.RLock()
	w, ok := registry[name]
	regMu.RUnlock()
	if ok {
		return w, nil
	}
	return Workload{}, fmt.Errorf("workloads: unknown workload %q (known: %s)",
		name, joinNames(AllSorted()))
}

// builtin returns the paper's workload presets by name.
func builtin(name string) (Workload, error) {
	switch name {
	case "beego":
		// Full-featured Go web framework: rich middleware pipeline.
		cfg := base(name, 0xBEE60)
		cfg.RequestTypes = 9
		cfg.Stages = []program.StageSpec{
			{Name: "Read", CommonFuncs: 150},
			{Name: "Route", Diverges: true, CommonFuncs: 90, HandlerFuncs: 75},
			{Name: "Filter", CommonFuncs: 330},
			{Name: "Exec", Diverges: true, CommonFuncs: 140, HandlerFuncs: 95},
			{Name: "Render", CommonFuncs: 170},
		}
		cfg.OrphanFuncs = 34_000
		cfg.ColdTrees = 10
		cfg.ColdTreeFuncs = 420
		return Workload{Name: name, Config: cfg, TraceSeed: 11}, nil
	case "gin":
		// Minimal router, hot middleware chain, skewed endpoint mix.
		cfg := base(name, 0x61709)
		cfg.RequestTypes = 8
		cfg.TypeZipf = 0.9
		cfg.Stages = []program.StageSpec{
			{Name: "Read", CommonFuncs: 130},
			{Name: "Route", Diverges: true, CommonFuncs: 70, HandlerFuncs: 80},
			{Name: "Handle", Diverges: true, CommonFuncs: 150, HandlerFuncs: 95},
			{Name: "Render", CommonFuncs: 200},
		}
		cfg.OrphanFuncs = 34_000
		cfg.ColdTrees = 10
		cfg.ColdTreeFuncs = 420
		return Workload{Name: name, Config: cfg, TraceSeed: 13}, nil
	case "echo":
		// Echo framework: similar scale to gin, different structure.
		cfg := base(name, 0xEC40)
		cfg.RequestTypes = 10
		cfg.Stages = []program.StageSpec{
			{Name: "Read", CommonFuncs: 140},
			{Name: "Route", Diverges: true, CommonFuncs: 80, HandlerFuncs: 70},
			{Name: "Middleware", CommonFuncs: 280},
			{Name: "Handle", Diverges: true, CommonFuncs: 120, HandlerFuncs: 90},
			{Name: "Render", CommonFuncs: 160},
		}
		cfg.OrphanFuncs = 36_000
		cfg.ColdTrees = 12
		cfg.ColdTreeFuncs = 550
		return Workload{Name: name, Config: cfg, TraceSeed: 17}, nil
	case "caddy":
		// HTTP/1-2-3 server under nghttp2 load: deep protocol stages,
		// few request types.
		cfg := base(name, 0xCADD1)
		cfg.RequestTypes = 6
		cfg.TypeZipf = 0.6
		cfg.Stages = []program.StageSpec{
			{Name: "Accept", CommonFuncs: 180},
			{Name: "Decode", CommonFuncs: 260},
			{Name: "Match", Diverges: true, CommonFuncs: 100, HandlerFuncs: 90},
			{Name: "Serve", Diverges: true, CommonFuncs: 160, HandlerFuncs: 110},
			{Name: "Encode", CommonFuncs: 220},
		}
		cfg.OrphanFuncs = 50_000
		cfg.ColdTrees = 12
		cfg.ColdTreeFuncs = 600
		return Workload{Name: name, Config: cfg, TraceSeed: 19}, nil
	case "dgraph":
		// Graph database: the largest web-side binary, diverse queries.
		cfg := base(name, 0xD64A9)
		cfg.RequestTypes = 12
		cfg.Stages = []program.StageSpec{
			{Name: "Read", CommonFuncs: 160},
			{Name: "Parse", CommonFuncs: 340},
			{Name: "Plan", Diverges: true, CommonFuncs: 130, HandlerFuncs: 85},
			{Name: "Exec", Diverges: true, CommonFuncs: 190, HandlerFuncs: 105},
			{Name: "Reply", CommonFuncs: 170},
		}
		cfg.OrphanFuncs = 160_000
		cfg.OrphanTreeFuncs = 80
		cfg.ColdTrees = 16
		cfg.ColdTreeFuncs = 550
		return Workload{Name: name, Config: cfg, TraceSeed: 23}, nil
	case "gorm":
		// ORM over PostgreSQL: reflective query building, moderate size.
		cfg := base(name, 0x609101)
		cfg.RequestTypes = 7
		cfg.Stages = []program.StageSpec{
			{Name: "Bind", CommonFuncs: 170},
			{Name: "Build", Diverges: true, CommonFuncs: 110, HandlerFuncs: 90},
			{Name: "Query", CommonFuncs: 300},
			{Name: "Scan", Diverges: true, CommonFuncs: 130, HandlerFuncs: 85},
			{Name: "Finish", CommonFuncs: 140},
		}
		cfg.OrphanFuncs = 35_000
		cfg.ColdTrees = 10
		cfg.ColdTreeFuncs = 420
		return Workload{Name: name, Config: cfg, TraceSeed: 29}, nil
	case "mysql-sysbench", "mysql-ycsb", "mysql-sibench":
		// One MySQL-like binary, three drivers with different request
		// mixes (sysbench read-write, YCSB, sibench).
		cfg := base(name, 0x5153AD)
		cfg.RequestTypes = 8
		cfg.Stages = []program.StageSpec{
			{Name: "Read", CommonFuncs: 150},
			{Name: "Parse", CommonFuncs: 320},
			{Name: "Optimize", Diverges: true, CommonFuncs: 150, HandlerFuncs: 80},
			{Name: "Exec", Diverges: true, CommonFuncs: 180, HandlerFuncs: 100},
			{Name: "Commit", CommonFuncs: 160},
		}
		cfg.OrphanFuncs = 100_000
		cfg.OrphanTreeFuncs = 70
		cfg.ColdTrees = 14
		cfg.ColdTreeFuncs = 500
		var seed uint64
		switch name {
		case "mysql-sysbench":
			cfg.TypeZipf = 0.55
			seed = 31
		case "mysql-ycsb":
			cfg.TypeZipf = 0.99 // YCSB's zipfian default
			seed = 37
		default: // sibench
			cfg.TypeZipf = 0.3
			seed = 41
		}
		return Workload{Name: name, Config: cfg, TraceSeed: seed}, nil
	case "tidb-sysbench", "tidb-tpcc":
		// TiDB: the largest binary, the Figure 1 pipeline.
		cfg := base(name, 0x71DB)
		cfg.RequestTypes = 10
		cfg.Stages = []program.StageSpec{
			{Name: "Read", CommonFuncs: 160},
			{Name: "Dispatch", Diverges: true, CommonFuncs: 90, HandlerFuncs: 75},
			{Name: "Compile", CommonFuncs: 420},
			{Name: "Exec", Diverges: true, CommonFuncs: 150, HandlerFuncs: 95},
			{Name: "Finish", CommonFuncs: 150},
		}
		cfg.OrphanFuncs = 420_000
		cfg.OrphanTreeFuncs = 90
		cfg.ColdTrees = 20
		cfg.ColdTreeFuncs = 600
		seed := uint64(43)
		if name == "tidb-tpcc" {
			cfg.TypeZipf = 0.45 // TPC-C's fixed transaction mix
			seed = 47
		}
		return Workload{Name: name, Config: cfg, TraceSeed: seed}, nil
	}
	return Workload{}, fmt.Errorf("workloads: unknown builtin workload %q", name)
}

var (
	regMu    sync.RWMutex
	registry = map[string]Workload{}
)

// Register adds a workload preset to the registry, making it reachable
// by name through Get/Build and therefore through every harness,
// service, fleet and trace path. Builtin names and duplicates are
// rejected.
func Register(w Workload) error {
	if w.Name == "" {
		return fmt.Errorf("workloads: cannot register a workload without a name")
	}
	if _, err := builtin(w.Name); err == nil {
		return fmt.Errorf("workloads: %q collides with a builtin workload", w.Name)
	}
	regMu.Lock()
	defer regMu.Unlock()
	if _, dup := registry[w.Name]; dup {
		return fmt.Errorf("workloads: %q is already registered", w.Name)
	}
	registry[w.Name] = w
	return nil
}

// Registered returns the registered (non-builtin) workload names,
// sorted — never in map iteration order, so -list output and error
// messages are stable across processes.
func Registered() []string {
	regMu.RLock()
	names := make([]string, 0, len(registry))
	for n := range registry {
		names = append(names, n)
	}
	regMu.RUnlock()
	sort.Strings(names)
	return names
}

// AllSorted returns every known workload name — the paper's eleven plus
// everything registered — sorted alphabetically.
func AllSorted() []string {
	all := append(Names(), Registered()...)
	sort.Strings(all)
	return all
}

// joinNames renders a name list for error messages.
func joinNames(names []string) string {
	out := ""
	for i, n := range names {
		if i > 0 {
			out += ", "
		}
		out += n
	}
	return out
}

// Built is a generated, linked, loadable workload.
type Built struct {
	Workload Workload
	Linked   *linker.Linked
	Loaded   *loader.Loaded
}

// NewEngine creates a fresh deterministic execution engine for the
// workload (same stream every call).
func (b *Built) NewEngine() Engine {
	return b.EngineOver(b.Loaded)
}

// EngineOver creates the workload's engine over an alternative loaded
// image (e.g. the fault-degraded loader path), honouring the workload's
// engine factory.
func (b *Built) EngineOver(ld *loader.Loaded) Engine {
	if b.Workload.EngineFactory != nil {
		return b.Workload.EngineFactory(ld, b.Workload.TraceSeed)
	}
	return trace.New(ld, b.Workload.TraceSeed)
}

// flight is one build of a workload. b and err are written exactly once,
// before done closes.
type flight struct {
	done chan struct{}
	b    *Built
	err  error
}

var (
	cacheMu sync.Mutex
	cache   = map[string]*flight{}
)

// Build generates, links and loads a workload, memoising the result per
// name with single-flight: concurrent calls for one name share a single
// build, different names build in parallel, and a failed build is
// returned to every caller that shared it but never cached, so the next
// call tries again.
func Build(name string) (*Built, error) {
	cacheMu.Lock()
	f, ok := cache[name]
	if !ok {
		f = &flight{done: make(chan struct{})}
		cache[name] = f
	}
	cacheMu.Unlock()
	if ok {
		<-f.done
		return f.b, f.err
	}

	defer func() {
		if f.b == nil && f.err == nil { // build panicked: release the waiters
			f.err = fmt.Errorf("workloads %s: build panicked", name)
		}
		if f.err != nil {
			cacheMu.Lock()
			if cache[name] == f {
				delete(cache, name)
			}
			cacheMu.Unlock()
		}
		close(f.done)
	}()
	f.b, f.err = build(name)
	return f.b, f.err
}

// build generates, links and loads one workload without memoising.
func build(name string) (*Built, error) {
	w, err := Get(name)
	if err != nil {
		return nil, err
	}
	gen := w.Generator
	if gen == nil {
		gen = func() (*program.Program, error) { return program.Generate(w.Config) }
	}
	p, err := gen()
	if err != nil {
		return nil, fmt.Errorf("workloads %s: %w", name, err)
	}
	l, err := linker.Link(p, linker.Options{})
	if err != nil {
		return nil, fmt.Errorf("workloads %s: %w", name, err)
	}
	return &Built{Workload: w, Linked: l, Loaded: loader.LoadLinked(p, l.Image)}, nil
}

// DropCache releases all memoised workloads (tests and memory-sensitive
// tools). Builds in flight finish for the callers already waiting on
// them; later calls build afresh.
func DropCache() {
	cacheMu.Lock()
	defer cacheMu.Unlock()
	cache = map[string]*flight{}
}

// SortedNames returns Names() sorted alphabetically, for stable table
// output where the paper's order is not required.
func SortedNames() []string {
	n := Names()
	sort.Strings(n)
	return n
}
