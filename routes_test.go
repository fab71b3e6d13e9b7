package virtualwire

import "testing"

// FuzzRoutes holds the switches' planned routes to a plain breadth-first
// search. The input decodes to a small wiring — a ring, a random fabric
// with redundant trunks, or a k = 4 fat-tree — and a set of failed trunks
// and down switches. The forest is walked as build walks it, then again
// over what is still alive, as reconvergence does. After that, for every
// pair of switches, hop must name the first trunk of the pair's path
// through the live forest, or -1 when the forest does not join them; the
// forest must join exactly the pairs the live wiring joins; and every
// switch's parent trunk must lead to its parent, a root having none.
func FuzzRoutes(f *testing.F) {
	f.Add([]byte{0, 5, 0, 0})                      // 8-switch ring, all alive
	f.Add([]byte{0, 3, 0, 0, 0x45})                // 6-switch ring, two trunks and a switch out
	f.Add([]byte{1, 8, 6, 3, 0x21, 0x00, 0x02})    // 10-switch random fabric, 6 extra trunks, two trunks and a switch out
	f.Add([]byte{2, 0, 0, 0, 0x11, 0, 0, 0, 0x81}) // fat-tree, two uplinks, a core and an edge out
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 4 {
			return
		}
		var spec TopologySpec
		switch data[0] % 3 {
		case 0:
			spec = TopologySpec{Kind: TopoRing, Switches: 3 + int(data[1]%8)}
		case 1:
			spec = TopologySpec{Kind: TopoRandom, Switches: 2 + int(data[1]%10),
				ExtraTrunks: int(data[2] % 8), WiringSeed: 1 + int64(data[3])}
		default:
			spec = TopologySpec{Kind: TopoFatTree, FatTreeK: 4}
		}
		plan, err := planFabric(&spec, 1)
		if err != nil {
			t.Fatal(err)
		}
		out := data[4:] // bit i: trunk i failed; bit trunks+j: switch j down
		bit := func(i int) bool { return i/8 < len(out) && out[i/8]&(1<<(i%8)) != 0 }
		failed := func(ti int) bool { return bit(ti) }
		down := func(si int) bool { return bit(len(plan.trunks) + si) }

		fo := newSpanningForest(plan.switches, plan.trunks)
		fo.walk(never, never)
		fo.walk(failed, down)

		n := plan.switches
		for s := 0; s < n; s++ {
			up := int(fo.up[s])
			switch p := fo.parent[s]; {
			case p < 0 || p == s:
				if up != -1 {
					t.Fatalf("switch %d (parent %d) has parent trunk %d, want none", s, p, up)
				}
			case up < 0 || !fo.inTree[up] || plan.trunks[up].a+plan.trunks[up].b-s != p:
				t.Fatalf("switch %d: parent trunk %d does not lead to parent %d", s, up, p)
			}
		}
		// The reference: from every live switch, a BFS over the tree
		// trunks, recording the first trunk of each path, and one over
		// every live trunk, recording reachability.
		first := make([]int, n)
		wired := make([]bool, n)
		queue := make([]int, 0, n)
		bfs := func(src int, use func(ti int) bool, visit func(from, ti, to int)) {
			seen := make([]bool, n)
			seen[src] = true
			queue = append(queue[:0], src)
			for head := 0; head < len(queue); head++ {
				s := queue[head]
				for ti, w := range plan.trunks {
					if w.a != s && w.b != s || !use(ti) {
						continue
					}
					if o := w.a + w.b - s; !seen[o] && !down(o) {
						seen[o] = true
						visit(s, ti, o)
						queue = append(queue, o)
					}
				}
			}
		}
		for src := 0; src < n; src++ {
			for i := range first {
				first[i], wired[i] = -1, false
			}
			if !down(src) {
				bfs(src, func(ti int) bool { return fo.inTree[ti] }, func(from, ti, to int) {
					if first[to] = first[from]; from == src {
						first[to] = ti
					}
				})
				bfs(src, func(ti int) bool { return !failed(ti) }, func(_, _, to int) { wired[to] = true })
			}
			for dst := 0; dst < n; dst++ {
				if got := fo.hop(src, dst); got != first[dst] {
					t.Fatalf("%v: hop(%d, %d) = %d, want %d (failed/down bits %x)", spec.Kind, src, dst, got, first[dst], out)
				}
				if (first[dst] >= 0) != wired[dst] {
					t.Fatalf("%v: the forest joins %d and %d: %v; the live wiring: %v", spec.Kind, src, dst, first[dst] >= 0, wired[dst])
				}
			}
		}
	})
}

// TestPlannedFabricDoesNotFlood: on the 1000-host fat-tree every switch
// knows the port toward every host from the Node Table and the spanning
// forest, so no frame of the 100 flows floods — not even each flow's
// first, which a learning fabric flooded to all 1000 hosts.
func TestPlannedFabricDoesNotFlood(t *testing.T) {
	if testing.Short() {
		t.Skip("1000-host fabric")
	}
	r := fabricManyFlowRow()
	tb := r.build(t, 1, nil)
	r.run(t, tb, false)
	var ingress, flooded uint64
	for _, sw := range tb.fabric {
		ingress += sw.IngressFrames
		flooded += sw.FloodedFrames
	}
	if ingress == 0 || flooded != 0 {
		t.Errorf("fabric flooded %d of %d ingress frames, want none of some", flooded, ingress)
	}
}
