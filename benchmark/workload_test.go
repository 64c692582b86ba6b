package main

import (
	"math"
	"reflect"
	"testing"
)

func stream(w workload, seed int64, client, clients, n int) []op {
	g := newGenerator(w, fullDataset, seed, client, clients)
	ops := make([]op, n)
	for i := range ops {
		ops[i] = g.next()
	}
	return ops
}

func TestSeedDeterminesStream(t *testing.T) {
	for _, w := range workloads {
		a := stream(w, 7, 0, 2, 5000)
		if b := stream(w, 7, 0, 2, 5000); !reflect.DeepEqual(a, b) {
			t.Errorf("%s: the same seed gave two different streams", w.name)
		}
		if b := stream(w, 8, 0, 2, 5000); reflect.DeepEqual(a, b) {
			t.Errorf("%s: seeds 7 and 8 gave the same stream", w.name)
		}
		if b := stream(w, 7, 1, 2, 5000); reflect.DeepEqual(a, b) {
			t.Errorf("%s: clients 0 and 1 gave the same stream", w.name)
		}
		for i, o := range a {
			if o.key < 0 || (o.kind != opScanRead && o.key >= int64(fullDataset.kvRows)) {
				t.Fatalf("%s: op %d has key %d outside the dataset", w.name, i, o.key)
			}
		}
	}
}

func TestZipfTopKeysTakeExpectedShare(t *testing.T) {
	w, _ := findWorkload("broker-mixed")
	const n = 400_000
	top := int64(fullDataset.kvRows / 100)
	var inTop, updates int
	for _, o := range stream(w, 3, 0, 2, n) {
		if o.key < top {
			inTop++
		}
		if o.kind == opUpdate {
			updates++
		}
	}
	// P(k) is proportional to (1+k)^-s over k in [0, kvRows).
	harmonic := func(n int) float64 {
		var h float64
		for k := 1; k <= n; k++ {
			h += math.Pow(float64(k), -zipfS)
		}
		return h
	}
	want := harmonic(int(top)) / harmonic(fullDataset.kvRows)
	if got := float64(inTop) / n; math.Abs(got-want) > 0.01 {
		t.Errorf("top 1%% of keys took %.4f of the requests, want %.4f", got, want)
	}
	if got := float64(updates) / n; math.Abs(got-0.05) > 0.005 {
		t.Errorf("updates are %.4f of the requests, want 0.05", got)
	}
}

func TestScanNonceNeverFiltersAndNeverRepeats(t *testing.T) {
	w, _ := findWorkload("scan-read")
	seen := map[int64]bool{}
	for client := 0; client < 2; client++ {
		for i, o := range stream(w, 5, client, 2, 100_000) {
			if o.kind != opScanRead || o.key < 0 || o.key >= scanGroups {
				t.Fatalf("client %d op %d: %+v is not a scan of a group", client, i, o)
			}
			// The predicate is stock >= nonce, and every row's stock is
			// scanStock.
			if o.nonce < 0 || o.nonce > scanStock {
				t.Fatalf("client %d op %d: nonce %d would filter rows of stock %d", client, i, o.nonce, scanStock)
			}
			if seen[o.nonce] {
				t.Fatalf("client %d op %d: nonce %d repeats, so the request could be a cache hit", client, i, o.nonce)
			}
			seen[o.nonce] = true
		}
	}
}

func TestQuartileSpreadMatchesPython(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4) is
	// [3.5, 13.5, 31.0]; the median is 13.5.
	got := quartileSpread([]float64{46, 1, 2, 4, 7, 11, 16, 22, 29, 37})
	if want := (31.0 - 3.5) / 13.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("quartileSpread = %v, want %v", got, want)
	}
}
