package service

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// TestJournalSpecFormat pins what a durable job journals at submission: the
// original request re-encoded as its spec, the job kind, and the canonical
// result key (explore canon V2, scale canon V1). A replica of a later build
// must replay these bytes to the same key — that is what lets it resume an
// older replica's journalled jobs and checkpoints — so any change here is a
// compatibility break, not a refactor.
func TestJournalSpecFormat(t *testing.T) {
	cfg, _ := durableConfig(t, t.TempDir(), "pin", 0)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	s := New(ctx, cfg)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	for _, tc := range []struct {
		kind, body, spec, key string
	}{
		{
			"explore",
			`{"timeout_sec": 30, "kernels": ["HPGMG"], "optimizations": ["ntc"], "budget_w": 150, "bws_tbps": [1], "freqs_mhz": [750], "cus": [128, 64], "seed": 0}`,
			`{"cus":[128,64],"freqs_mhz":[750],"bws_tbps":[1],"kernels":["HPGMG"],"budget_w":150,"optimizations":["ntc"],"timeout_sec":30}`,
			"dabf2f52711eabdcc085993ddcc8f1d99c8e3014de571b0f62575a61d8b55cc0",
		},
		{
			"explore",
			`{"explorer": "surrogate", "seed": 5, "eval_budget": 2, "kernels": ["CoMD"], "gpu_chiplets": [8, 4], "cus": [64], "freqs_mhz": [750], "bws_tbps": [1]}`,
			`{"cus":[64],"freqs_mhz":[750],"bws_tbps":[1],"gpu_chiplets":[8,4],"kernels":["CoMD"],"explorer":"surrogate","eval_budget":2,"seed":5}`,
			"d6d42d25e56c38d70b4fe68f6fe2ee36216aad6f138d2163c2f439ba26fe5593",
		},
		{
			"scale",
			`{"seed": 3, "fault_mask": "node:1", "mode": "strong", "nodes": [8, 1], "topology": "Torus", "kernel": "CoMD", "ideal": false}`,
			`{"kernel":"CoMD","topology":"Torus","nodes":[8,1],"mode":"strong","fault_mask":"node:1","seed":3}`,
			"0e379cd52971655b11e2a99fb5372c56f558886a0907c8b6826a3b4481a45e25",
		},
	} {
		resp, err := http.Post(ts.URL+"/v1/"+tc.kind, "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("%s submit: %d %s", tc.kind, resp.StatusCode, body)
		}
		var out struct {
			Job JobView `json:"job"`
		}
		if err := json.Unmarshal(body, &out); err != nil {
			t.Fatal(err)
		}
		if v, err := s.sched.Wait(context.Background(), out.Job.ID); err != nil || v.State != JobDone {
			t.Fatalf("%s job: state=%s err=%v (%s)", tc.kind, v.State, err, v.Error)
		}
		e, ok := cfg.Journal.Get(out.Job.ID)
		if !ok {
			t.Fatalf("%s: no journal entry", tc.kind)
		}
		if e.Kind != tc.kind || string(e.Spec) != tc.spec || e.Key != tc.key {
			t.Errorf("%s journal entry:\nkind %s\nspec %s\nkey  %s\nwant spec %s\nwant key  %s", tc.kind, e.Kind, e.Spec, e.Key, tc.spec, tc.key)
		}
	}
	// Drain so the last job's trailing journal writes land before the
	// directory is removed.
	drainCtx, dc := context.WithTimeout(context.Background(), 5*time.Second)
	defer dc()
	s.Drain(drainCtx)
}
