package core

import (
	"crypto/sha256"
	"fmt"
	"testing"

	"lrm/internal/dataset"
)

// goldenModelArchives pins the LRM1 archive of every default candidate
// (direct plus the six reduced models) under the paper's zfp and sz codec
// pairs on the small Heat3d and Laplace fields. Any change to a reduced
// model's arithmetic — the linalg solvers behind PCA and SVD included —
// that moves a stored representation moves a digest here.
var goldenModelArchives = map[[3]string]string{
	{"Heat3d", "zfp", "direct"}:     "b9d8c1c951f56ea4",
	{"Heat3d", "zfp", "one-base"}:   "b04ef93a3760ae69",
	{"Heat3d", "zfp", "multi-base"}: "5769c691ea324b85",
	{"Heat3d", "zfp", "duomodel"}:   "7054d0e6fe2ebd61",
	{"Heat3d", "zfp", "pca"}:        "be0bede41a24392e",
	{"Heat3d", "zfp", "svd"}:        "08885a33e56444f4",
	{"Heat3d", "zfp", "wavelet"}:    "fa6b7521e8bb6d0c",

	{"Heat3d", "sz", "direct"}:     "240f875ef9d7b414",
	{"Heat3d", "sz", "one-base"}:   "a9500200c4613fe6",
	{"Heat3d", "sz", "multi-base"}: "e11354512feb9882",
	{"Heat3d", "sz", "duomodel"}:   "d0efbb6c80edde1b",
	{"Heat3d", "sz", "pca"}:        "ef8a22adccb5f49f",
	{"Heat3d", "sz", "svd"}:        "519ded7f33760a18",
	{"Heat3d", "sz", "wavelet"}:    "d943a7ee3123df28",

	{"Laplace", "zfp", "direct"}:     "97978c130187265f",
	{"Laplace", "zfp", "one-base"}:   "f81f3a86c5708742",
	{"Laplace", "zfp", "multi-base"}: "b6c156d228f858ae",
	{"Laplace", "zfp", "duomodel"}:   "46524e3a7862036c",
	{"Laplace", "zfp", "pca"}:        "6614a8cf5b9ba85f",
	{"Laplace", "zfp", "svd"}:        "13b92f3c804e4f37",
	{"Laplace", "zfp", "wavelet"}:    "345c036ba733ee4c",

	{"Laplace", "sz", "direct"}:     "bbe36bf4e49e96b4",
	{"Laplace", "sz", "one-base"}:   "065c2d30b28346a8",
	{"Laplace", "sz", "multi-base"}: "b2552625ee7619f8",
	{"Laplace", "sz", "duomodel"}:   "cdd946d6a664016a",
	{"Laplace", "sz", "pca"}:        "786bf55bc63a308d",
	{"Laplace", "sz", "svd"}:        "11073ebbcde5fdd9",
	{"Laplace", "sz", "wavelet"}:    "86f11c4747ba031c",
}

func TestGoldenModelArchives(t *testing.T) {
	for _, ds := range []string{"Heat3d", "Laplace"} {
		pair, err := dataset.Generate(ds, dataset.Small)
		if err != nil {
			t.Fatal(err)
		}
		for _, fam := range []string{"zfp", "sz"} {
			data, delta, err := PaperCodecs(fam)
			if err != nil {
				t.Fatal(err)
			}
			for _, cand := range DefaultCandidates() {
				key := [3]string{ds, fam, cand.Label}
				res, err := Compress(pair.Full, Options{Model: cand.Model, DataCodec: data, DeltaCodec: delta})
				if err != nil {
					t.Fatalf("%v: %v", key, err)
				}
				sum := sha256.Sum256(res.Archive)
				got := fmt.Sprintf("%x", sum[:8])
				if want := goldenModelArchives[key]; got != want {
					t.Errorf("%v: archive digest %s, want %s (%d bytes, ratio %.6f)",
						key, got, want, len(res.Archive), res.Ratio())
				}
			}
		}
	}
}
