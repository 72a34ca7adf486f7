package core

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"
)

// goldenDefaultModelsXMLHash is the SHA-256 of the default model set's
// XML, recorded before any change to the training pipeline. Every run
// that uses DefaultModels starts from this set, so a faster trainer must
// keep it byte-identical.
const goldenDefaultModelsXMLHash = "67bee1c6de4851d89d1317c9ced01aed6fbcd94e4177ec91e59c8f31d607bc45"

func TestDefaultModelsXMLGolden(t *testing.T) {
	data, err := DefaultModels().Set.EncodeXML()
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(data)
	if got := hex.EncodeToString(sum[:]); got != goldenDefaultModelsXMLHash {
		t.Fatalf("default model XML (%d bytes) hashes to %s, golden %s", len(data), got, goldenDefaultModelsXMLHash)
	}
}
