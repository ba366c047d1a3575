package interp_test

// Hand-built CFG differential for edge and activation counting: the
// micro-op path counts both in per-function slots and builds
// Profile.Edges/Calls at run end, while the reference loop writes the maps
// directly. These programs pin the shapes the corpus may not isolate:
// recursion (activations of one function share its counters, each frame
// keeps its own predecessor block), a join with many predecessors, a
// self-loop on the entry block, and empty blocks. Block IDs differ from
// layout positions so a mix-up between the two shows.

import (
	"reflect"
	"testing"

	"repro/internal/interp"
	"repro/internal/ir"
)

func mov(dst, a ir.Reg) ir.Instr { return ir.Instr{Op: ir.OpMov, Dst: dst, A: a} }

func opi(op ir.Op, dst, a ir.Reg, imm int64) ir.Instr {
	return ir.Instr{Op: op, Dst: dst, A: a, Imm: imm, UseImm: true}
}

func bsr(callee string) ir.Instr { return ir.Instr{Op: ir.OpBsr, Sym: callee} }

func ret() ir.Instr { return ir.Instr{Op: ir.OpRet} }

// fibProg computes fib(10) recursively. fib's block b5 returns from the
// first recursive call and falls through to b9, so the b5→b9 edge is
// counted only if each frame kept its own predecessor across the inner
// activations.
func fibProg() *ir.Program {
	fib := &ir.Func{Name: "fib", Language: ir.LangC, FrameSize: 4, Blocks: []*ir.Block{
		{ID: 7, Insns: []ir.Instr{
			mov(ir.R(1), ir.RegA0),
			opi(ir.OpCmpLt, ir.R(2), ir.R(1), 2),
			{Op: ir.OpBne, A: ir.R(2), Target: 3},
		}},
		{ID: 5, Insns: []ir.Instr{
			opi(ir.OpSubQ, ir.RegA0, ir.R(1), 1),
			bsr("fib"),
			mov(ir.R(3), ir.RegV0),
		}},
		{ID: 9, Insns: []ir.Instr{
			opi(ir.OpSubQ, ir.RegA0, ir.R(1), 2),
			bsr("fib"),
			{Op: ir.OpAddQ, Dst: ir.RegV0, A: ir.R(3), B: ir.RegV0},
			ret(),
		}},
		{ID: 3, Insns: []ir.Instr{mov(ir.RegV0, ir.R(1)), ret()}},
	}}
	main := &ir.Func{Name: "main", Language: ir.LangC, Blocks: []*ir.Block{
		{ID: 0, Insns: []ir.Instr{{Op: ir.OpLdiQ, Dst: ir.RegA0, Imm: 10}, bsr("fib"), ret()}},
	}}
	return &ir.Program{Name: "fib", Funcs: []*ir.Func{main, fib}}
}

// switchProg loops i over [0, 40) through a 9-way jump table on i%9. Every
// case joins at b11, the last one (empty) by falling through, so b11 has
// nine predecessors.
func switchProg() *ir.Program {
	const cases = 9
	blocks := []*ir.Block{
		{ID: 0, Insns: []ir.Instr{{Op: ir.OpLdiQ, Dst: ir.R(1), Imm: 0}}},
		{ID: 1, Insns: []ir.Instr{
			opi(ir.OpRemQ, ir.R(2), ir.R(1), cases),
			{Op: ir.OpJmp, A: ir.R(2), Targets: []int{2, 3, 4, 5, 6, 7, 8, 9, 10}},
		}},
	}
	for k := 0; k < cases-1; k++ {
		blocks = append(blocks, &ir.Block{ID: 2 + k, Insns: []ir.Instr{
			opi(ir.OpAddQ, ir.R(5), ir.R(5), int64(k+1)),
			{Op: ir.OpBr, Target: 11},
		}})
	}
	blocks = append(blocks,
		&ir.Block{ID: 10},
		&ir.Block{ID: 11, Insns: []ir.Instr{
			opi(ir.OpAddQ, ir.R(1), ir.R(1), 1),
			opi(ir.OpCmpLt, ir.R(2), ir.R(1), 40),
			{Op: ir.OpBne, A: ir.R(2), Target: 1},
		}},
		&ir.Block{ID: 12, Insns: []ir.Instr{mov(ir.RegV0, ir.R(5)), ret()}},
	)
	main := &ir.Func{Name: "main", Language: ir.LangC, Blocks: blocks}
	return &ir.Program{Name: "switch", Funcs: []*ir.Func{main}}
}

// loopProg spins a self-loop on the entry block six times, then passes
// through two empty blocks: b1, reached by falling through, and b5,
// reached by a taken branch.
func loopProg() *ir.Program {
	main := &ir.Func{Name: "main", Language: ir.LangC, Blocks: []*ir.Block{
		{ID: 0, Insns: []ir.Instr{
			opi(ir.OpAddQ, ir.R(1), ir.R(1), 1),
			opi(ir.OpCmpLt, ir.R(2), ir.R(1), 6),
			{Op: ir.OpBne, A: ir.R(2), Target: 0},
		}},
		{ID: 1},
		{ID: 2, Insns: []ir.Instr{{Op: ir.OpBgt, A: ir.R(1), Target: 5}}},
		{ID: 4, Insns: []ir.Instr{{Op: ir.OpLdiQ, Dst: ir.RegV0, Imm: 1}, ret()}},
		{ID: 5},
		{ID: 6, Insns: []ir.Instr{mov(ir.RegV0, ir.R(1)), ret()}},
	}}
	return &ir.Program{Name: "loop", Funcs: []*ir.Func{main}}
}

func TestHandBuiltEdgesMatchReference(t *testing.T) {
	type want struct {
		result int64
		calls  map[string]int64
		edges  map[interp.EdgeRef]int64 // a hand-counted subset of the edges
	}
	e := func(fn string, from, to int) interp.EdgeRef {
		return interp.EdgeRef{Func: fn, From: from, To: to}
	}
	cases := []struct {
		prog *ir.Program
		want want
	}{
		{fibProg(), want{55,
			map[string]int64{"main": 1, "fib": 177},
			map[interp.EdgeRef]int64{e("fib", 7, 5): 88, e("fib", 5, 9): 88, e("fib", 7, 3): 89}}},
		{switchProg(), want{5*(1+2+3+4) + 4*(5+6+7+8),
			map[string]int64{"main": 1},
			map[interp.EdgeRef]int64{e("main", 0, 1): 1, e("main", 1, 2): 5, e("main", 1, 10): 4,
				e("main", 2, 11): 5, e("main", 9, 11): 4, e("main", 10, 11): 4,
				e("main", 11, 1): 39, e("main", 11, 12): 1}}},
		{loopProg(), want{6,
			map[string]int64{"main": 1},
			map[interp.EdgeRef]int64{e("main", 0, 0): 5, e("main", 0, 1): 1, e("main", 1, 2): 1,
				e("main", 2, 5): 1, e("main", 5, 6): 1}}},
	}
	for _, c := range cases {
		t.Run(c.prog.Name, func(t *testing.T) {
			if err := c.prog.Verify(); err != nil {
				t.Fatal(err)
			}
			cfg := interp.Config{CollectEdges: true}
			ref, err := interp.RunReference(c.prog, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if ref.Result != c.want.result || !reflect.DeepEqual(ref.Calls, c.want.calls) {
				t.Fatalf("reference: result %d calls %v, want %d %v",
					ref.Result, ref.Calls, c.want.result, c.want.calls)
			}
			for k, n := range c.want.edges {
				if ref.Edges[k] != n {
					t.Errorf("reference: edge %v = %d, want %d", k, ref.Edges[k], n)
				}
			}

			plain, err := interp.Run(c.prog, cfg)
			if err != nil {
				t.Fatal(err)
			}
			var agg interp.TraceAggregate
			traced, err := interp.RunTrace(c.prog, cfg, &agg)
			if err != nil {
				t.Fatal(err)
			}
			if err := agg.Check(traced); err != nil {
				t.Fatal(err)
			}
			for name, p := range map[string]*interp.Profile{"Run": plain, "RunTrace": traced} {
				diffProfiles(t, name, p, ref) // includes the Edges maps
				if !reflect.DeepEqual(p.Calls, ref.Calls) {
					t.Errorf("%s calls %v, reference %v", name, p.Calls, ref.Calls)
				}
			}

			// Without CollectEdges activations are still counted and no
			// edge map exists.
			noEdges, err := interp.Run(c.prog, interp.Config{})
			if err != nil {
				t.Fatal(err)
			}
			if noEdges.Edges != nil || !reflect.DeepEqual(noEdges.Calls, ref.Calls) {
				t.Errorf("without edges: edges %v calls %v, want nil %v",
					noEdges.Edges, noEdges.Calls, ref.Calls)
			}
		})
	}
}
