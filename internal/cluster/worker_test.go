package cluster

import (
	"io"
	"net/http"
	"strings"
	"testing"
)

// The shard routes are mounted on every replica's public mux, so a shard
// body must not reach further than the public /v1/explore and /v1/scale
// requests it stands for. Each case is a current-protocol body that breaks
// one rule of that envelope.
func TestWorkerEnforcesInputEnvelope(t *testing.T) {
	srv := newWorkerServer(t)
	const (
		grid  = `"v":2,"cus":[192],"freqs_mhz":[1000],"bws_tbps":[3],"kernels":["CoMD"]`
		scale = `"v":2,"kernel":"CoMD","mode":"weak","link_gbps":50,"latency_ns":500`
	)
	post := func(path, body string) (int, string) {
		t.Helper()
		resp, err := http.Post(srv.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(b)
	}

	// The unbroken bodies are accepted, so each rejection below is down to
	// its one broken rule.
	for _, ok := range []struct{ path, body string }{
		{"/v1/internal/shard/explore", `{` + grid + `,"budget_w":160,"opts":31,"start":0,"end":1}`},
		{"/v1/internal/shard/explore", `{"v":2,"points":[{"CUs":192,"FreqMHz":1000,"BWTBps":3}],"kernels":["CoMD"],"budget_w":160,"start":5,"end":6}`},
		{"/v1/internal/shard/scale", `{` + scale + `,"topology":"torus","sizes":[1,4096],"mask":"node:1","start":0,"end":2}`},
	} {
		if code, body := post(ok.path, ok.body); code != http.StatusOK || !strings.Contains(body, `"type":"done"`) {
			t.Fatalf("valid shard %s rejected: %d %s", ok.body, code, body)
		}
	}

	for _, tc := range []struct {
		name, path, body string
	}{
		{"empty grid axis", "/v1/internal/shard/explore",
			`{"v":2,"cus":[],"freqs_mhz":[1000],"bws_tbps":[3],"kernels":["CoMD"],"budget_w":160,"start":0,"end":1}`},
		{"negative grid value", "/v1/internal/shard/explore",
			`{"v":2,"cus":[-192],"freqs_mhz":[1000],"bws_tbps":[3],"kernels":["CoMD"],"budget_w":160,"start":0,"end":1}`},
		{"duplicate grid value", "/v1/internal/shard/explore",
			`{"v":2,"cus":[192],"freqs_mhz":[1000,1000],"bws_tbps":[3],"kernels":["CoMD"],"budget_w":160,"start":0,"end":1}`},
		{"zero packaging axis", "/v1/internal/shard/explore",
			`{` + grid + `,"gpu_chiplets":[0],"budget_w":160,"start":0,"end":1}`},
		{"zero budget", "/v1/internal/shard/explore", `{` + grid + `,"budget_w":0,"start":0,"end":1}`},
		{"negative budget", "/v1/internal/shard/explore", `{` + grid + `,"budget_w":-5,"start":0,"end":1}`},
		{"unknown optimization", "/v1/internal/shard/explore", `{` + grid + `,"budget_w":160,"opts":64,"start":0,"end":1}`},
		{"listed point non-positive", "/v1/internal/shard/explore",
			`{"v":2,"points":[{"CUs":0,"FreqMHz":1000,"BWTBps":3}],"kernels":["CoMD"],"budget_w":160,"start":0,"end":1}`},
		{"listed point negative packaging", "/v1/internal/shard/explore",
			`{"v":2,"points":[{"CUs":192,"FreqMHz":1000,"BWTBps":3,"GPUChiplets":-1}],"kernels":["CoMD"],"budget_w":160,"start":0,"end":1}`},
		{"listed range mismatch", "/v1/internal/shard/explore",
			`{"v":2,"points":[{"CUs":192,"FreqMHz":1000,"BWTBps":3}],"kernels":["CoMD"],"budget_w":160,"start":0,"end":2}`},
		{"node count past the machine", "/v1/internal/shard/scale",
			`{` + scale + `,"topology":"torus","sizes":[1073741824],"start":0,"end":1}`},
		{"too many sizes", "/v1/internal/shard/scale",
			`{` + scale + `,"topology":"torus","sizes":[1,2,3,4,5,6,7,8,9,10,11,12,13,14,15,16,17],"start":0,"end":1}`},
		{"zero nodes", "/v1/internal/shard/scale", `{` + scale + `,"topology":"torus","sizes":[0],"start":0,"end":1}`},
		{"degraded past rack scale", "/v1/internal/shard/scale",
			`{` + scale + `,"topology":"torus","sizes":[8192],"mask":"node:1","start":0,"end":1}`},
		{"non-node mask", "/v1/internal/shard/scale", `{` + scale + `,"topology":"torus","sizes":[8],"mask":"gpu:1","start":0,"end":1}`},
		{"unknown topology", "/v1/internal/shard/scale", `{` + scale + `,"topology":"hypercube","sizes":[8],"start":0,"end":1}`},
		{"negative link", "/v1/internal/shard/scale",
			`{"v":2,"kernel":"CoMD","mode":"weak","link_gbps":-1,"latency_ns":500,"topology":"torus","sizes":[8],"start":0,"end":1}`},
	} {
		if code, body := post(tc.path, tc.body); code != http.StatusBadRequest {
			t.Errorf("%s: status = %d, want 400 (%s)", tc.name, code, strings.TrimSpace(body))
		}
	}
}
