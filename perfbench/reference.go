package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"

	"xui/internal/check"
	"xui/internal/experiments"
	"xui/internal/report"
)

// tier1Jobs and tier2Jobs are the registry jobs the two sweeps run, in
// run order; both run at the registry's quick grid scale.
var (
	tier1Jobs = []string{"table2", "fig2", "fig4", "fig5", "section2", "section35", "ablations", "worstcase"}
	tier2Jobs = []string{"fig6", "fig7", "fig8", "multiworker", "scale"}
)

// allJobs returns every job the benchmark runs, tier1Jobs first.
func allJobs() []string {
	return append(append([]string(nil), tier1Jobs...), tier2Jobs...)
}

// referenceJSON holds the committed digests of every job's result
// document; regenerate with `go run . -write-reference reference.json`
// from this directory.
//
//go:embed reference.json
var referenceJSON []byte

// reference maps job name to the sha256 of its result document.
type reference struct {
	Quick   bool              `json:"quick"`
	Digests map[string]string `json:"digests"`
}

func loadReference() (reference, error) {
	var ref reference
	if err := json.Unmarshal(referenceJSON, &ref); err != nil {
		return ref, fmt.Errorf("decoding reference.json: %w", err)
	}
	for _, j := range allJobs() {
		if ref.Digests[j] == "" {
			return ref, fmt.Errorf("reference.json has no digest for %s", j)
		}
	}
	return ref, nil
}

// resultDoc renders a job's payload as its canonical result document,
// built exactly as xuiserve builds the result it serves, so one digest
// checks a local run and a served answer alike.
func resultDoc(name string, payload any) ([]byte, error) {
	rep := report.New("xuiserve")
	rep.Experiment = name
	rep.Quick = true
	rep.AddResult(name, payload)
	return rep.Fingerprint()
}

func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// runJob runs one registry job at the quick scale, turning a panic into
// an error so a failing job counts as a failed operation.
func runJob(name string) (payload any, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("%s panicked: %v", name, r)
		}
	}()
	return experiments.RunJob(name, true)
}

// jobDigest runs a job and returns the digest of its result document.
func jobDigest(name string) (string, error) {
	payload, err := runJob(name)
	if err != nil {
		return "", err
	}
	doc, err := resultDoc(name, payload)
	if err != nil {
		return "", fmt.Errorf("encoding %s: %w", name, err)
	}
	return digest(doc), nil
}

// recordReference computes every job's digest the slow, checked way:
// the run cache, tapes and core pooling off, and the invariant checker
// attached. It fails on any invariant violation.
func recordReference() (reference, error) {
	experiments.SetWorkers(1)
	experiments.SetShards(1)
	experiments.SetCaching(false)
	col := check.NewCollector()
	experiments.SetChecking(col)
	defer func() {
		experiments.SetChecking(nil)
		experiments.SetCaching(true)
	}()
	ref := reference{Quick: true, Digests: map[string]string{}}
	for _, j := range allJobs() {
		d, err := jobDigest(j)
		if err != nil {
			return ref, err
		}
		ref.Digests[j] = d
	}
	if rep := col.Report(); !rep.OK() {
		return ref, fmt.Errorf("invariant violations while recording the reference: %s", rep)
	}
	return ref, nil
}

func writeReference(path string) error {
	ref, err := recordReference()
	if err != nil {
		return err
	}
	b, err := json.MarshalIndent(ref, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
