package cluster

import (
	"context"
	"encoding/json"
	"reflect"
	"sort"
	"testing"

	"ena/internal/dse"
	"ena/internal/exp"
	"ena/internal/fabric"
	"ena/internal/faults"
	"ena/internal/obs"
)

// The golden strings below pin the formats that outlive one process: shard
// requests and stream lines cross the wire between replicas of different
// builds, and checkpoint keys are read back by whichever replica resumes a
// job. A change to any of them breaks mixed fleets and strands checkpoints,
// so it must come with a protoVersion bump, not slip in with a refactor.

func TestShardRequestWireFormat(t *testing.T) {
	for _, tc := range []struct {
		name string
		req  any
		want string
	}{
		{
			"explore grid",
			ExploreShardRequest{
				V: protoVersion, CUs: []int{192, 256}, FreqsMHz: []float64{800, 1000}, BWsTBps: []float64{1, 3},
				GPUChiplets: []int{4, 8}, HBMStackGBs: []float64{16}, ExtModules: []int{2},
				Kernels: []string{"CoMD", "SNAP"}, BudgetW: 160, Opts: 3, Start: 4, End: 8,
			},
			`{"v":2,"cus":[192,256],"freqs_mhz":[800,1000],"bws_tbps":[1,3],"gpu_chiplets":[4,8],"hbm_stack_gbs":[16],"ext_modules":[2],"kernels":["CoMD","SNAP"],"budget_w":160,"opts":3,"start":4,"end":8}`,
		},
		{
			"explore list",
			ExploreShardRequest{
				V: protoVersion, Points: []dse.Point{{CUs: 320, FreqMHz: 1000, BWTBps: 3}, {CUs: 256, FreqMHz: 900, BWTBps: 2, GPUChiplets: 4, HBMStackGB: 16, ExtModules: 2}},
				Kernels: []string{"CoMD"}, BudgetW: 160, Start: 10, End: 12,
			},
			`{"v":2,"points":[{"CUs":320,"FreqMHz":1000,"BWTBps":3,"GPUChiplets":0,"HBMStackGB":0,"ExtModules":0},{"CUs":256,"FreqMHz":900,"BWTBps":2,"GPUChiplets":4,"HBMStackGB":16,"ExtModules":2}],"kernels":["CoMD"],"budget_w":160,"opts":0,"start":10,"end":12}`,
		},
		{
			"scale",
			ScaleShardRequest{
				V: protoVersion, Kernel: "CoMD", Topology: "torus", Sizes: []int{1, 50, 1000}, Mode: "weak",
				LinkGBps: 50, LatencyNs: 500, Mask: "node:2", Seed: 7, Start: 0, End: 2,
			},
			`{"v":2,"kernel":"CoMD","topology":"torus","sizes":[1,50,1000],"mode":"weak","link_gbps":50,"latency_ns":500,"ideal":false,"mask":"node:2","seed":7,"start":0,"end":2}`,
		},
	} {
		got, err := json.Marshal(tc.req)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != tc.want {
			t.Errorf("%s:\ngot  %s\nwant %s", tc.name, got, tc.want)
		}
	}
}

func TestShardLineWireFormat(t *testing.T) {
	ev := dse.Eval{
		Point:      dse.Point{CUs: 320, FreqMHz: 1000, BWTBps: 3},
		PerfTFLOPs: []float64{12.5}, BudgetW: []float64{150.25}, FeasibleAll: true,
	}
	se := ScaleEval{
		Point:       fabric.Point{Nodes: 50, ComputeNs: 1000, HaloNs: 20, ReduceNs: 5, Efficiency: 0.975, DeliveredTFLOPs: 487.5},
		FailedNodes: 2, DegradedEfficiency: 0.5,
	}
	for _, tc := range []struct {
		name string
		line shardLine
		want string
	}{
		{"eval", shardLine{Type: "eval", Index: 3, Eval: &ev},
			`{"type":"eval","index":3,"eval":{"Point":{"CUs":320,"FreqMHz":1000,"BWTBps":3,"GPUChiplets":0,"HBMStackGB":0,"ExtModules":0},"PerfTFLOPs":[12.5],"BudgetW":[150.25],"FeasibleAll":true,"MeanScore":0}}`},
		{"scale", shardLine{Type: "scale", Index: 1, Scale: &se},
			`{"type":"scale","index":1,"scale":{"point":{"nodes":50,"compute_ns":1000,"halo_ns":20,"reduce_ns":5,"efficiency":0.975,"delivered_tflops":487.5},"failed_nodes":2,"degraded_efficiency":0.5}}`},
		{"done", shardLine{Type: "done", Count: 64}, `{"type":"done","count":64}`},
		{"error", shardLine{Type: "error", Error: "boom"}, `{"type":"error","error":"boom"}`},
	} {
		if got := string(tc.line.encode()); got != tc.want+"\n" {
			t.Errorf("%s line:\ngot  %s\nwant %s", tc.name, got, tc.want)
		}
	}
}

func TestCheckpointKeyFormat(t *testing.T) {
	kernels, names := testKernels(t)
	cs := newMemCkpt()
	c := NewCoordinator(nil, obs.NewRegistry())
	c.EnableCheckpoints(cs, 8)
	if _, err := c.Explore(context.Background(), testSpace(), kernels, names, 160, 0, "ekey"); err != nil {
		t.Fatal(err)
	}
	rate := exp.NodeRateFor(kernels[0])
	if _, err := c.Scale(context.Background(), "torus", fabric.DefaultLinkSpec(), kernels[0], rate,
		[]int{1, 8, 50}, fabric.Weak, faults.Mask{}, "", 0, "skey"); err != nil {
		t.Fatal(err)
	}
	var keys []string
	for k := range cs.m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	want := []string{
		"ck:explore:2:ekey:0-8", "ck:explore:2:ekey:16-18", "ck:explore:2:ekey:8-16",
		"ck:scale:2:skey:0-2", "ck:scale:2:skey:2-3",
	}
	if !reflect.DeepEqual(keys, want) {
		t.Fatalf("checkpoint keys:\ngot  %q\nwant %q", keys, want)
	}
	// Payloads are the shard's items in index order, as plain JSON arrays.
	var evals []dse.Eval
	if err := json.Unmarshal(cs.m["ck:explore:2:ekey:16-18"], &evals); err != nil || len(evals) != 2 {
		t.Fatalf("explore checkpoint payload: %d evals, err %v", len(evals), err)
	}
	var scales []ScaleEval
	if err := json.Unmarshal(cs.m["ck:scale:2:skey:2-3"], &scales); err != nil || len(scales) != 1 || scales[0].Point.Nodes != 50 {
		t.Fatalf("scale checkpoint payload: %+v, err %v", scales, err)
	}
}
