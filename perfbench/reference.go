package main

import (
	"bytes"
	"context"
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strconv"

	"repro"
)

// jobCounts are the deterministic outcome of one explore job.
type jobCounts struct {
	Schedules int64 `json:"schedules"`
	Runs      int64 `json:"runs"`
	Aborts    int64 `json:"aborts"`
	// Classes is the job's Mazurkiewicz trace-class count, taken from a
	// sleep-set run of the same job (equal to Schedules under POR).
	Classes int64 `json:"classes"`
}

// campaignCounts are the deterministic outcome of one sampling campaign.
type campaignCounts struct {
	Runs      int64  `json:"runs"`
	Schedules int64  `json:"schedules"`
	Classes   int64  `json:"classes"`
	Violation string `json:"violation"`
}

// reference holds the expected counts per input seed. Explore counts
// come from single-worker repro.Explore runs; campaign counts from
// single-process, unsharded campaign runs (makeReference also checks
// that the fleet's merged reports equal them).
type reference struct {
	Explore   map[string]map[string]jobCounts      `json:"explore"`
	Campaigns map[string]map[string]campaignCounts `json:"campaigns"`
}

func (r *reference) explore(seed int64, job string) (jobCounts, bool) {
	c, ok := r.Explore[strconv.FormatInt(seed, 10)][job]
	return c, ok
}

func (r *reference) campaign(seed int64, name string) (campaignCounts, bool) {
	c, ok := r.Campaigns[strconv.FormatInt(seed, 10)][name]
	return c, ok
}

//go:embed reference.json
var referenceJSON []byte

func loadReference() (*reference, error) {
	var r reference
	if err := json.Unmarshal(referenceJSON, &r); err != nil {
		return nil, fmt.Errorf("reference.json: %w", err)
	}
	return &r, nil
}

// makeReference recomputes every reference count and writes them to
// path. It runs each explore job once per input seed (plus a sleep-set
// run for the class count), each sampling campaign once as a single
// unsharded process, and one fleet pass per input seed whose merged
// reports must equal the single-process ones.
func makeReference(ctx context.Context, path string) error {
	r := reference{Explore: map[string]map[string]jobCounts{}, Campaigns: map[string]map[string]campaignCounts{}}
	scratch, err := os.MkdirTemp(".bench_build", "mkref-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(scratch)
	for _, seed := range inputSeeds {
		key := strconv.FormatInt(seed, 10)
		r.Explore[key] = map[string]jobCounts{}
		for _, j := range append(append([]exploreJob(nil), exhaustiveJobs...), porJobs...) {
			p, err := prepare(j, seed)
			if err != nil {
				return err
			}
			got, err := p.explore(ctx, p.body(), p.check())
			if err != nil {
				return fmt.Errorf("%s seed %d: %w", j.name, seed, err)
			}
			got.Classes = got.Schedules
			if j.reduction == repro.ReductionNone {
				p.opts.Reduction = repro.ReductionSleepSets
				por, err := p.explore(ctx, p.body(), p.check())
				if err != nil {
					return fmt.Errorf("%s seed %d under POR: %w", j.name, seed, err)
				}
				got.Classes = por.Schedules
			}
			r.Explore[key][j.name] = got
			fmt.Printf("seed %d %-24s %+v\n", seed, j.name, got)
		}

		r.Campaigns[key] = map[string]campaignCounts{}
		for _, c := range fleetCampaigns {
			got, err := singleProcessCampaign(ctx, c, seed, filepath.Join(scratch, fmt.Sprintf("%s-%d.ckpt", c.name, seed)))
			if err != nil {
				return fmt.Errorf("campaign %s seed %d: %w", c.name, seed, err)
			}
			r.Campaigns[key][c.name] = got
			fmt.Printf("seed %d %-24s %+v\n", seed, c.name, got)
		}
	}

	// The fleet must reproduce the single-process reports exactly.
	for _, seed := range inputSeeds {
		w := newFleetWorkload(seed, &r, filepath.Join(scratch, fmt.Sprintf("fleet-%d", seed)))
		if err := w.setup(ctx); err != nil {
			return err
		}
		p := w.pass(ctx, nil)
		w.close()
		if p.failed > 0 {
			return fmt.Errorf("fleet pass at input seed %d disagrees with the single-process campaigns: %v", seed, p.problems)
		}
		fmt.Printf("seed %d fleet pass matches the single-process campaigns (%.2fs)\n", seed, p.wall.Seconds())
	}

	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(r); err != nil {
		return err
	}
	return os.WriteFile(path, buf.Bytes(), 0o644)
}
