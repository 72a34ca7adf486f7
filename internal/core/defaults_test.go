package core

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"testing"

	"toto/internal/models"
	"toto/internal/slo"
	"toto/internal/trace"
	"toto/internal/trainer"
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

// goldenTrainedModelsHash is the SHA-256 of everything a default training
// run produces besides the model set (see hashTrainedModels), recorded
// before any change to trace generation or training. The XML golden
// above only sees what survives into the deployable set; this one also
// pins the traces, labels and diagnostics tototrain and the §4 figures
// read.
const goldenTrainedModelsHash = "1a1715583c8b09137cfcd1480236f3fc3e5217c2fdea75bc4b1c7fb24eb01570"

// modelHasher feeds fixed-width little-endian fields to a SHA-256.
type modelHasher struct {
	h   hash.Hash
	buf [8]byte
}

func (m *modelHasher) u64(v uint64) {
	binary.LittleEndian.PutUint64(m.buf[:], v)
	m.h.Write(m.buf[:])
}

func (m *modelHasher) int(v int)       { m.u64(uint64(int64(v))) }
func (m *modelHasher) float(v float64) { m.u64(math.Float64bits(v)) }
func (m *modelHasher) str(s string)    { m.int(len(s)); m.h.Write([]byte(s)) }
func (m *modelHasher) floats(x []float64) {
	m.int(len(x))
	for _, v := range x {
		m.float(v)
	}
}
func (m *modelHasher) strs(x []string) {
	m.int(len(x))
	for _, s := range x {
		m.str(s)
	}
}

// hashTrainedModels digests a training run in a fixed order: the region
// hour counts, every disk trace, the disk trainings and the count
// trainings, editions in slo.Editions order and hour buckets weekday
// hours 0-23 then weekend hours 0-23.
func hashTrainedModels(tm *TrainedModels) string {
	m := &modelHasher{h: sha256.New()}
	for _, e := range slo.Editions() {
		for _, hcs := range [2][]trace.HourCount{tm.Region.Creates[e], tm.Region.Drops[e]} {
			m.int(len(hcs))
			for _, hc := range hcs {
				m.int(int(hc.Time.Unix()))
				m.int(hc.Count)
			}
		}
	}
	m.int(len(tm.DiskTraces))
	for _, tr := range tm.DiskTraces {
		m.str(tr.DB)
		m.int(int(tr.Edition))
		m.int(int(tr.Class))
		m.int(int(tr.Created.Unix()))
		m.int(int(tr.Interval))
		m.floats(tr.UsageGB)
	}
	for _, e := range slo.Editions() {
		dt := tm.Disk[e]
		m.float(dt.SteadyFraction)
		m.floats(dt.SteadyDeltas)
		m.strs(dt.InitialDBs)
		m.strs(dt.RapidDBs)
		m.int(dt.TotalDBs)
	}
	for _, e := range slo.Editions() {
		for _, kind := range []trainer.CountKind{trainer.KindCreate, trainer.KindDrop} {
			ct := tm.Counts[e][kind]
			for w := 0; w < 2; w++ {
				for h := 0; h < 24; h++ {
					b := models.HourBucket{Weekend: w == 1, Hour: h}
					m.floats(ct.Samples[b])
					p := ct.Model.Cell(b)
					m.float(p.Mean)
					m.float(p.Sigma)
					ks, ok := ct.KS[b]
					if ok {
						m.int(1)
					} else {
						m.int(0)
					}
					m.float(ks.D)
					m.float(ks.P)
					m.int(ks.N)
				}
			}
		}
	}
	return hex.EncodeToString(m.h.Sum(nil))
}

func TestTrainedModelsGolden(t *testing.T) {
	if got := hashTrainedModels(DefaultModels()); got != goldenTrainedModelsHash {
		t.Fatalf("default training run hashes to %s, golden %s", got, goldenTrainedModelsHash)
	}
}

// BenchmarkTrainDefaultModels measures the training run every process
// that calls DefaultModels pays once at startup.
func BenchmarkTrainDefaultModels(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		TrainDefaultModels(42)
	}
}
