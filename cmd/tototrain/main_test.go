package main

import (
	"bytes"
	"os"
	"testing"

	"toto/internal/core"
)

// TestValidateReportGolden pins the seed-42 -validate report byte for
// byte. testdata/validate_seed42.txt was recorded before any change to
// trace generation or training; every figure in it is derived from the
// training run, so a change to the pipeline that moves any trained
// number shows here as a diff of the report.
func TestValidateReportGolden(t *testing.T) {
	want, err := os.ReadFile("testdata/validate_seed42.txt")
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	report(&got, core.DefaultModels(), 42)
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("-validate report differs from testdata/validate_seed42.txt:\n--- got ---\n%s--- want ---\n%s", got.Bytes(), want)
	}
}
