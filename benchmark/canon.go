package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash"
	"math"
	"strings"

	"seedb"
)

// The correctness oracle compares canonical forms: everything a caller
// can observe about the answer (ranked views, scores, group keys, raw
// vectors), minus wall-clock and executor counters, which legitimately
// differ between two executions of the same request.

// digestResult canonicalises a library result.
func digestResult(res *seedb.Result) string {
	h := sha256.New()
	fmt.Fprintf(h, "%s|%s|%d\n", res.Metric, res.Operator, res.TargetRowCount)
	for _, r := range res.Recommendations {
		d := r.Data
		writeView(h, r.Rank, d.View.String(), d.Utility, d.Keys)
		fmt.Fprintf(h, "%s|%v|", r.ChartType, r.Represents)
		writeFloats(h, d.TargetRaw)
		writeFloats(h, d.ComparisonRaw)
	}
	for _, s := range res.AllScores {
		fmt.Fprintf(h, "%s|%x\n", s.View.Key(), math.Float64bits(s.Utility))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// viewsDigest canonicalises only what the HTTP response also carries
// (rank, title, utility, keys), so a library result and a response body
// can be compared.
func viewsDigest(res *seedb.Result) string {
	h := sha256.New()
	for _, r := range res.Recommendations {
		writeView(h, r.Rank, r.Data.View.String(), r.Data.Utility, r.Data.Keys)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// responseViews is the part of /api/recommend's body the oracle reads.
type responseViews struct {
	Views []struct {
		Rank    int      `json:"rank"`
		Title   string   `json:"title"`
		Utility float64  `json:"utility"`
		Keys    []string `json:"keys"`
	} `json:"views"`
}

// viewsDigestJSON is viewsDigest over a response body.
func viewsDigestJSON(body []byte) (string, error) {
	var rv responseViews
	if err := json.Unmarshal(body, &rv); err != nil {
		return "", err
	}
	if len(rv.Views) == 0 {
		return "", fmt.Errorf("response carries no views")
	}
	h := sha256.New()
	for _, v := range rv.Views {
		writeView(h, v.Rank, v.Title, v.Utility, v.Keys)
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

func writeView(h hash.Hash, rank int, title string, utility float64, keys []string) {
	fmt.Fprintf(h, "%d|%s|%x|%s\n", rank, title, math.Float64bits(utility), strings.Join(keys, "\x00"))
}

func writeFloats(h hash.Hash, v []float64) {
	for _, x := range v {
		fmt.Fprintf(h, "%x,", math.Float64bits(x))
	}
	h.Write([]byte{'\n'})
}
