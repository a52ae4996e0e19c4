package program

import (
	"slices"
	"testing"
	"testing/quick"

	"hprefetch/internal/isa"
)

func testConfig() Config {
	cfg := DefaultConfig()
	cfg.Name = "test"
	cfg.Seed = 7
	cfg.OrphanFuncs = 200
	cfg.LibFuncs = 80
	cfg.ColdTrees = 3
	cfg.ColdTreeFuncs = 40
	return cfg
}

func TestGenerateDeterminism(t *testing.T) {
	a, err := Generate(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if a.NumFuncs() != b.NumFuncs() {
		t.Fatalf("function counts differ: %d vs %d", a.NumFuncs(), b.NumFuncs())
	}
	for i := range a.Funcs {
		fa, fb := &a.Funcs[i], &b.Funcs[i]
		if fa.Size != fb.Size || fa.Seed != fb.Seed || fa.Kind != fb.Kind || len(fa.Calls) != len(fb.Calls) {
			t.Fatalf("function %d differs between identical generations", i)
		}
		for j := range fa.Calls {
			if fa.Calls[j] != fb.Calls[j] {
				t.Fatalf("function %d call %d differs", i, j)
			}
		}
	}
}

func TestGenerateStructure(t *testing.T) {
	p, err := Generate(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if p.Entry != 0 || p.Funcs[p.Entry].Kind != KindRoot {
		t.Error("entry must be the root function")
	}
	if len(p.Stages) != 5 {
		t.Fatalf("got %d stages, want 5", len(p.Stages))
	}
	for i, s := range p.Stages {
		if p.Funcs[s.Func].Kind != KindStage {
			t.Errorf("stage %d function has kind %v", i, p.Funcs[s.Func].Kind)
		}
		if s.Diverges {
			if len(s.Handlers) != p.RequestTypes {
				t.Errorf("stage %s has %d handlers, want %d", s.Name, len(s.Handlers), p.RequestTypes)
			}
			for _, h := range s.Handlers {
				if p.Funcs[h].Kind != KindHandler {
					t.Errorf("handler %d has kind %v", h, p.Funcs[h].Kind)
				}
			}
		} else if len(s.Handlers) != 0 {
			t.Errorf("non-diverging stage %s has handlers", s.Name)
		}
	}
}

func TestGenerateLayering(t *testing.T) {
	// Dynamic execution relies on hot call edges never pointing to a
	// lower (or equal) FuncID, which guarantees acyclic hot execution.
	p, err := Generate(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	for i := range p.Funcs {
		f := &p.Funcs[i]
		for _, c := range f.Calls {
			if c.Prob == 0 {
				continue // cold edges may point anywhere
			}
			if c.Indirect() {
				for _, tgt := range p.TargetSets[c.Targets].Funcs {
					if int(tgt) <= i {
						t.Fatalf("func %d hot indirect edge to non-deeper %d", i, tgt)
					}
				}
			} else if int(c.Callee) <= i {
				t.Fatalf("func %d hot edge to non-deeper %d", i, c.Callee)
			}
		}
	}
}

func TestCallSiteInvariants(t *testing.T) {
	p, err := Generate(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	for i := range p.Funcs {
		f := &p.Funcs[i]
		prev := int64(-int64(CallRegionBytes))
		for j, c := range f.Calls {
			if c.Off%isa.InstrSize != 0 {
				t.Fatalf("func %d call %d offset %d unaligned", i, j, c.Off)
			}
			if int64(c.Off) < prev+CallRegionBytes {
				t.Fatalf("func %d call %d at %d overlaps previous at %d", i, j, c.Off, prev)
			}
			if c.Off < isa.InstrSize || c.Off+CallRegionBytes > f.RetOff() {
				t.Fatalf("func %d call %d offset %d out of body (size %d)", i, j, c.Off, f.Size)
			}
			prev = int64(c.Off)
			if !c.Indirect() && int(c.Callee) >= p.NumFuncs() {
				t.Fatalf("func %d call %d dangling callee %d", i, j, c.Callee)
			}
			if c.Indirect() && int(c.Targets) >= len(p.TargetSets) {
				t.Fatalf("func %d call %d dangling target set", i, j)
			}
		}
		if f.Size%isa.InstrSize != 0 || f.Size < MinFuncSize {
			t.Fatalf("func %d size %d invalid", i, f.Size)
		}
	}
}

func TestBodyCoversFunction(t *testing.T) {
	p, err := Generate(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	for i := range p.Funcs {
		f := &p.Funcs[i]
		items := Body(f)
		if len(items) == 0 {
			t.Fatalf("func %d has empty body", i)
		}
		cur := uint32(0)
		callIdx := 0
		for k, it := range items {
			if it.Off != cur {
				t.Fatalf("func %d item %d at %d, expected contiguous %d", i, k, it.Off, cur)
			}
			switch it.Kind {
			case ItemCall:
				if int(it.Arg) != callIdx {
					t.Fatalf("func %d call order broken", i)
				}
				if it.Off != f.Calls[callIdx].Off {
					t.Fatalf("func %d call %d body offset %d != static %d",
						i, callIdx, it.Off, f.Calls[callIdx].Off)
				}
				callIdx++
			case ItemRet:
				if k != len(items)-1 || it.Off != f.RetOff() {
					t.Fatalf("func %d return misplaced", i)
				}
			case ItemCondRun:
				if it.Bytes < 2*isa.InstrSize {
					t.Fatalf("func %d cond-run too small", i)
				}
			case ItemLoopRun:
				if it.Arg < 2 || it.Bytes < isa.InstrSize {
					t.Fatalf("func %d loop invalid", i)
				}
			}
			cur = it.Off + it.Bytes
		}
		if cur != f.Size {
			t.Fatalf("func %d body covers %d bytes of %d", i, cur, f.Size)
		}
		if callIdx != len(f.Calls) {
			t.Fatalf("func %d body has %d calls, static %d", i, callIdx, len(f.Calls))
		}
	}
}

func TestBodyDeterminism(t *testing.T) {
	p, err := Generate(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	f := &p.Funcs[p.Stages[1].Func]
	a, b := Body(f), Body(f)
	if len(a) != len(b) {
		t.Fatal("body lengths differ")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("body item %d differs across builds", i)
		}
	}
}

func TestAssignCallOffsetsProperty(t *testing.T) {
	f := func(seed uint64, nRaw uint8, extra uint16) bool {
		n := int(nRaw%20) + 1
		size := uint32((n+3)*4*isa.InstrSize) + uint32(extra%4096)&^3
		calls := make([]Call, n)
		AssignCallOffsets(seed, size, calls)
		prev := int64(-int64(CallRegionBytes))
		for _, c := range calls {
			if c.Off%isa.InstrSize != 0 ||
				int64(c.Off) < prev+CallRegionBytes ||
				c.Off < isa.InstrSize ||
				c.Off+CallRegionBytes+isa.InstrSize > size {
				return false
			}
			prev = int64(c.Off)
		}
		return true
	}
	if err := quick.Check(f, quickCfg()); err != nil {
		t.Error(err)
	}
}

func quickCfg() *quick.Config {
	return &quick.Config{MaxCount: 500}
}

func TestFuncAtUnlinked(t *testing.T) {
	p, err := Generate(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := p.FuncAt(0x1000); ok {
		t.Error("FuncAt must fail on unlinked programs")
	}
}

// TestSetAddrIndexMatchesSort lays a program out in a reversed order and
// checks the layout-order index equals the sorted one, and that a
// zero-size function (a tie in addresses) falls back to sorting.
func TestSetAddrIndexMatchesSort(t *testing.T) {
	p, err := Generate(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	n := p.NumFuncs()
	order := make([]isa.FuncID, n)
	addr := isa.Addr(0x1000)
	for i := range order {
		order[i] = isa.FuncID(n - 1 - i)
		p.Funcs[order[i]].Addr = addr
		addr += isa.Addr(p.Funcs[order[i]].Size)
	}
	p.TextBase, p.TextSize = 0x1000, uint64(addr-0x1000)
	p.BuildAddrIndex()
	sorted := p.addrIndex
	p.SetAddrIndex(append([]isa.FuncID(nil), order...))
	if !slices.Equal(p.addrIndex, sorted) {
		t.Fatal("layout-order index differs from the sorted one")
	}

	// A zero-size function at the same address as its successor.
	p.Funcs[order[1]].Size = 0
	p.Funcs[order[2]].Addr = p.Funcs[order[1]].Addr
	p.SetAddrIndex(order)
	if &p.addrIndex[0] == &order[0] {
		t.Error("an order with tied addresses was adopted instead of sorted")
	}
}

// TestFuncCountBoundsGeneration checks the function slice is allocated
// once: funcCount is never below what either generator creates.
func TestFuncCountBoundsGeneration(t *testing.T) {
	cfg := testConfig()
	chain := ChainConfig{Base: cfg, Depth: 3, Fanout: 2, ServiceCommonFuncs: 40, ServiceHandlerFuncs: 30}
	p, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	q, err := GenerateChain(chain)
	if err != nil {
		t.Fatal(err)
	}
	chainCfg := chain.config()
	for _, c := range []struct {
		p    *Program
		want int
	}{{p, cfg.funcCount()}, {q, chainCfg.funcCount()}} {
		if got := cap(c.p.Funcs); got != c.want {
			t.Errorf("%d functions regrew the slice to capacity %d, want %d", len(c.p.Funcs), got, c.want)
		}
	}
}

func TestTypeWeights(t *testing.T) {
	p, err := Generate(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(p.TypeWeights) != p.RequestTypes {
		t.Fatalf("weights %d != types %d", len(p.TypeWeights), p.RequestTypes)
	}
	var sum float64
	for _, w := range p.TypeWeights {
		sum += w
	}
	if sum < 0.999 || sum > 1.001 {
		t.Errorf("weights sum to %v", sum)
	}
}

func TestValidateRejectsBadConfigs(t *testing.T) {
	bad := []func(*Config){
		func(c *Config) { c.Name = "" },
		func(c *Config) { c.RequestTypes = 0 },
		func(c *Config) { c.Stages = nil },
		func(c *Config) { c.FuncSizeMin = 4 },
		func(c *Config) { c.FuncSizeMax = c.FuncSizeMin - 4 },
		func(c *Config) { c.CallProbMin = 0 },
		func(c *Config) { c.CallProbMax = 1.2 },
		func(c *Config) { c.HandlerDepthMin = 0 },
		func(c *Config) { c.HandlerFanoutMax = 0 },
	}
	for i, mutate := range bad {
		cfg := testConfig()
		mutate(&cfg)
		if _, err := Generate(cfg); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

func TestFuncNameStability(t *testing.T) {
	p, err := Generate(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if p.FuncName(p.Entry) != "serve_loop" {
		t.Errorf("root name = %q", p.FuncName(p.Entry))
	}
	for i := 0; i < p.NumFuncs(); i += 97 {
		id := isa.FuncID(i)
		if p.FuncName(id) != p.FuncName(id) || p.FuncName(id) == "" {
			t.Fatalf("unstable or empty name for %d", i)
		}
	}
}
