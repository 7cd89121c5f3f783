// Forward dataflow over the call graph: a per-function taint bit seeded
// at direct sites and propagated caller-ward to a fixpoint. Cycles
// (mutual recursion) terminate because the bit is monotone over a finite
// node set — the worklist enqueues a caller only when it becomes tainted.
package analysis

import (
	"go/token"
	"strings"
)

// WallClockSources are the time package functions that read or act on
// the wall clock (pure constructors stay allowed).
var WallClockSources = map[string]bool{
	"Now": true, "Sleep": true, "Since": true, "Until": true,
	"After": true, "AfterFunc": true, "Tick": true,
	"NewTimer": true, "NewTicker": true,
}

// AllowedRandConstructors are math/rand package-level functions that do
// not touch the global source.
var AllowedRandConstructors = map[string]bool{
	"New": true, "NewSource": true, "NewZipf": true,
	"NewPCG": true, "NewChaCha8": true,
}

// IsWallClockKey reports whether a callee key is a forbidden time
// package function, returning its short name.
func IsWallClockKey(key string) (string, bool) {
	name, ok := strings.CutPrefix(key, "time.")
	if !ok || !WallClockSources[name] {
		return "", false
	}
	return "time." + name, true
}

// IsGlobalRandKey reports whether a callee key is a global-source
// math/rand (or math/rand/v2) package-level function.
func IsGlobalRandKey(key string) (string, bool) {
	for _, prefix := range []string{"math/rand/v2.", "math/rand."} {
		if name, ok := strings.CutPrefix(key, prefix); ok {
			if !strings.Contains(name, ")") && !AllowedRandConstructors[name] {
				return prefix + name, true
			}
			return "", false
		}
	}
	return "", false
}

// IsEmissionName reports whether a call site name is an emission:
// message sends, event scheduling, stats recording. Name-based.
func IsEmissionName(name string) bool {
	switch name {
	case "Send", "After", "Multicast":
		return true
	}
	return strings.HasPrefix(name, "Record")
}

// TrustedSegments are import-path segments of packages that sit outside
// the sim-visible determinism scope: the real-time runtime, the
// simulator, the runtime interface, command binaries, and the seeded
// fault injector. Interface methods declared by these packages
// (env.Context.Now, env.Timer, ...) are sanctioned contract boundaries:
// their implementations legitimately wrap the wall clock and are audited
// separately, so taint never flows through them.
var TrustedSegments = []string{"rtnet", "simnet", "env", "cmd", "faults"}

// StandardFollow is the determinism-taint traversal policy: follow
// every edge except interface dispatch through an interface declared in
// a trusted runtime package.
func StandardFollow(n *FuncNode, site *CallSite, calleeKey string) bool {
	if site.Kind == CallIface && site.IfacePkg != "" &&
		PathHasSegment(site.IfacePkg, TrustedSegments...) {
		return false
	}
	return true
}

// AllocFollowIn is the hot-path traversal policy for prog: static and
// locally-bound calls only (dynamic dispatch leaves the statically
// guarded region), never into predis:coldpath functions or test helpers.
func AllocFollowIn(p *Program) FollowFunc {
	return func(n *FuncNode, site *CallSite, calleeKey string) bool {
		if site.Kind != CallStatic && site.Kind != CallBound {
			return false
		}
		callee := p.Node(calleeKey)
		return callee != nil && !callee.Cold && !callee.IsTest
	}
}

// directSource seeds a taint from call or capture sites whose callee key
// match recognizes. Captured values are flagged like calls: taking
// time.Now as a func value smuggles the wall clock past any per-call
// check.
func directSource(n *FuncNode, match func(key string) (string, bool)) (string, token.Pos) {
	for _, site := range n.Calls {
		for _, key := range site.Targets {
			if desc, ok := match(key); ok {
				if site.Kind == CallRef {
					desc += " (captured as a function value)"
				}
				return desc, site.Pos
			}
		}
	}
	return "", token.NoPos
}

// DirectWallClock seeds the wall-clock taint: a call to — or a captured
// value of — a forbidden time package function.
func DirectWallClock(n *FuncNode) (string, token.Pos) {
	return directSource(n, IsWallClockKey)
}

// DirectGlobalRand seeds the global-rand taint: use of a global-source
// math/rand package-level function.
func DirectGlobalRand(n *FuncNode) (string, token.Pos) {
	return directSource(n, IsGlobalRandKey)
}

// DirectEmission seeds the emission taint: an emission-named call site.
func DirectEmission(n *FuncNode) (string, token.Pos) {
	for _, site := range n.Calls {
		if site.Kind != CallRef && IsEmissionName(site.Name) {
			return site.Name, site.Pos
		}
	}
	return "", token.NoPos
}

// Taint is the result of one propagation over the program.
type Taint struct {
	prog *Program
	// hops maps a tainted node to how taint reached it.
	hops map[*FuncNode]taintHop
}

type taintHop struct {
	// direct describes a source inside the function itself ("" when the
	// taint arrived through a callee).
	direct string
	pos    token.Pos
	// via is the callee key the taint arrived through.
	via string
}

// FollowFunc decides whether taint may flow from a callee reached at
// site back into caller n. Policy layers use it to stop at trusted
// boundaries (exempt-package interfaces, cold paths).
type FollowFunc func(n *FuncNode, site *CallSite, calleeKey string) bool

// DirectFunc inspects one node and reports a direct source description
// ("" if none) with its position.
type DirectFunc func(n *FuncNode) (string, token.Pos)

// Propagate computes the taint fixpoint over the program: direct seeds
// each node, then taint flows callee->caller along every edge follow
// admits.
func (p *Program) Propagate(direct DirectFunc, follow FollowFunc) *Taint {
	t := &Taint{prog: p, hops: make(map[*FuncNode]taintHop)}
	var work []*FuncNode

	for _, n := range p.Nodes() {
		if desc, pos := direct(n); desc != "" {
			t.hops[n] = taintHop{direct: desc, pos: pos}
			work = append(work, n)
		}
	}

	// Fixpoint: a newly tainted callee taints its callers.
	for len(work) > 0 {
		callee := work[len(work)-1]
		work = work[:len(work)-1]
		for _, caller := range p.CallersOf(callee.Key) {
			if _, done := t.hops[caller]; done {
				continue
			}
			admitted := false
			var at token.Pos
			for _, site := range caller.Calls {
				for _, key := range site.Targets {
					if key == callee.Key && (follow == nil || follow(caller, site, key)) {
						admitted = true
						at = site.Pos
						break
					}
				}
				if admitted {
					break
				}
			}
			if admitted {
				t.hops[caller] = taintHop{via: callee.Key, pos: at}
				work = append(work, caller)
			}
		}
	}
	return t
}

// Tainted reports whether n is tainted.
func (t *Taint) Tainted(n *FuncNode) bool {
	_, ok := t.hops[n]
	return ok
}

// TaintedKey reports whether the function with the given key is
// tainted; functions outside the load never are.
func (t *Taint) TaintedKey(key string) bool {
	n := t.prog.nodes[key]
	return n != nil && t.Tainted(n)
}

// Direct returns the description of n's own source site, or "".
func (t *Taint) Direct(n *FuncNode) string { return t.hops[n].direct }

// Chain renders the witness path from n to the source, e.g.
// "emit -> flush -> ctx.Send". Cycles are cut; length is capped.
func (t *Taint) Chain(n *FuncNode) string {
	var parts []string
	seen := make(map[string]bool)
	cur := n
	for steps := 0; steps < 12; steps++ {
		hop, ok := t.hops[cur]
		if !ok {
			break
		}
		if hop.direct != "" {
			parts = append(parts, hop.direct)
			break
		}
		if seen[hop.via] {
			break
		}
		seen[hop.via] = true
		parts = append(parts, shortKey(hop.via))
		cur = t.prog.nodes[hop.via]
	}
	return strings.Join(parts, " -> ")
}

// ChainKey renders the witness path for the function with the given
// key, prefixed by the function's own short name.
func (t *Taint) ChainKey(key string) string {
	if n := t.prog.nodes[key]; n != nil {
		if rest := t.Chain(n); rest != "" {
			return shortKey(key) + " -> " + rest
		}
	}
	return shortKey(key)
}

// shortKey strips the package path from a node key for readable chains:
// "(*predis/internal/simnet.Network).schedule" -> "(*Network).schedule".
func shortKey(key string) string {
	pkg := PkgOfKey(key)
	if i := strings.LastIndex(pkg, "/"); i >= 0 {
		// Keep the last path segment as a package hint.
		return strings.Replace(key, pkg, pkg[i+1:], 1)
	}
	return key
}

// PathStep records how a node was reached in a forward traversal.
type PathStep struct {
	From *FuncNode // caller (nil for roots)
	Pos  token.Pos // call site in From
}

// Reachable walks the graph forward from roots along the edges follow
// admits and returns every reached node with its discovery step. The
// traversal is deterministic (node order, then call order).
func (p *Program) Reachable(roots []*FuncNode, follow FollowFunc) map[*FuncNode]PathStep {
	out := make(map[*FuncNode]PathStep)
	var queue []*FuncNode
	for _, r := range roots {
		if _, ok := out[r]; !ok {
			out[r] = PathStep{}
			queue = append(queue, r)
		}
	}
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		for _, site := range n.Calls {
			for _, key := range site.Targets {
				callee := p.nodes[key]
				if callee == nil {
					continue
				}
				if _, ok := out[callee]; ok {
					continue
				}
				if follow != nil && !follow(n, site, key) {
					continue
				}
				out[callee] = PathStep{From: n, Pos: site.Pos}
				queue = append(queue, callee)
			}
		}
	}
	return out
}

// RootChain renders the call path from a hot root down to n:
// "Send -> schedule -> alloc".
func RootChain(reached map[*FuncNode]PathStep, n *FuncNode) string {
	var parts []string
	for cur := n; cur != nil; {
		parts = append(parts, shortKey(cur.Key))
		step, ok := reached[cur]
		if !ok {
			break
		}
		cur = step.From
		if len(parts) > 12 {
			break
		}
	}
	for i, j := 0, len(parts)-1; i < j; i, j = i+1, j-1 {
		parts[i], parts[j] = parts[j], parts[i]
	}
	return strings.Join(parts, " -> ")
}
