package traffic

import (
	"math"
	"testing"

	"jabasd/internal/rng"
)

func TestVoiceActivityFactor(t *testing.T) {
	src := rng.New(1)
	v := NewVoiceModel(src, 1.0, 1.35)
	want := 1.0 / 2.35
	if math.Abs(v.activityRatio-want) > 1e-12 {
		t.Errorf("activity ratio = %v, want %v", v.activityRatio, want)
	}
	// Long-run fraction of active time should approach the activity factor.
	active := 0
	n := 200000
	for i := 0; i < n; i++ {
		if v.Advance(0.05) {
			active++
		}
	}
	frac := float64(active) / float64(n)
	if math.Abs(frac-want) > 0.03 {
		t.Errorf("observed activity %v, want ~%v", frac, want)
	}
}

func TestVoiceDefaults(t *testing.T) {
	v := NewVoiceModel(rng.New(2), 0, -1)
	if v.meanOnSec != 1.0 || v.meanOffSec != 1.35 {
		t.Errorf("defaults not applied: %v %v", v.meanOnSec, v.meanOffSec)
	}
}

func TestVoiceTogglesState(t *testing.T) {
	v := NewVoiceModel(rng.New(3), 0.5, 0.5)
	first := v.Active()
	toggled := false
	for i := 0; i < 1000; i++ {
		v.Advance(0.1)
		if v.Active() != first {
			toggled = true
			break
		}
	}
	if !toggled {
		t.Error("voice source never changed state")
	}
}

func TestDataModelIssuesRequests(t *testing.T) {
	src := rng.New(4)
	d := NewDataModel(src, 7, DefaultDataModelConfig())
	var req *BurstRequest
	now := 0.0
	for i := 0; i < 100000 && req == nil; i++ {
		now += 0.02
		req = d.Advance(0.02, now)
	}
	if req == nil {
		t.Fatal("data source never issued a request")
	}
	if req.UserID != 7 {
		t.Errorf("UserID = %d", req.UserID)
	}
	if req.SizeBits < 16_000 || req.SizeBits > 4_000_000 {
		t.Errorf("SizeBits = %v out of configured range", req.SizeBits)
	}
	if req.ArrivalTime != now {
		t.Errorf("ArrivalTime = %v, want %v", req.ArrivalTime, now)
	}
	if d.Pending() != req {
		t.Error("Pending should return the outstanding request")
	}
	// While pending, no new requests are issued.
	for i := 0; i < 1000; i++ {
		now += 0.02
		if d.Advance(0.02, now) != nil {
			t.Fatal("source issued a request while one is pending")
		}
	}
	// After completion the source thinks again and eventually issues another.
	d.BurstDone()
	if d.Pending() != nil {
		t.Error("Pending should be nil after BurstDone")
	}
	var second *BurstRequest
	for i := 0; i < 100000 && second == nil; i++ {
		now += 0.02
		second = d.Advance(0.02, now)
	}
	if second == nil {
		t.Fatal("no second request after BurstDone")
	}
}

func TestDataModelInterRequestTime(t *testing.T) {
	// With instantaneous service the mean time between requests should be
	// close to the mean reading time.
	cfg := DefaultDataModelConfig()
	cfg.MeanReadingTimeSec = 5
	src := rng.New(5)
	d := NewDataModel(src, 0, cfg)
	now := 0.0
	last := 0.0
	var gaps []float64
	for len(gaps) < 2000 {
		now += 0.05
		if req := d.Advance(0.05, now); req != nil {
			gaps = append(gaps, now-last)
			last = now
			d.BurstDone()
		}
	}
	mean := 0.0
	for _, g := range gaps {
		mean += g
	}
	mean /= float64(len(gaps))
	if math.Abs(mean-5) > 0.5 {
		t.Errorf("mean inter-request time = %v, want ~5", mean)
	}
}

func TestDataModelDefaults(t *testing.T) {
	d := NewDataModel(rng.New(6), 0, DataModelConfig{})
	def := DefaultDataModelConfig()
	if d.cfg.MeanReadingTimeSec != def.MeanReadingTimeSec ||
		d.cfg.ParetoAlpha != def.ParetoAlpha ||
		d.cfg.MinSizeBits != def.MinSizeBits {
		t.Errorf("defaults not applied: %+v", d.cfg)
	}
	if d.cfg.MaxSizeBits != d.cfg.MinSizeBits {
		t.Errorf("MaxSizeBits should clamp to MinSizeBits when smaller")
	}
}

func TestQueueFIFO(t *testing.T) {
	q := NewQueue()
	if len(q.Items()) != 0 || q.Len() != 0 {
		t.Error("empty queue should have no items and zero Len")
	}
	r1 := &BurstRequest{UserID: 1, ArrivalTime: 1}
	r2 := &BurstRequest{UserID: 2, ArrivalTime: 2}
	r3 := &BurstRequest{UserID: 3, ArrivalTime: 3}
	q.Push(r1)
	q.Push(r2)
	q.Push(r3)
	if q.Len() != 3 {
		t.Errorf("Len = %d", q.Len())
	}
	if q.Items()[0] != r1 {
		t.Error("the oldest request should come first")
	}
	items := q.Items()
	if items[0] != r1 || items[1] != r2 || items[2] != r3 {
		t.Error("Items not in arrival order")
	}
	if !q.Remove(r2) {
		t.Error("Remove existing returned false")
	}
	if q.Remove(r2) {
		t.Error("Remove twice returned true")
	}
	if q.Len() != 2 || q.Items()[1] != r3 {
		t.Error("queue after removal wrong")
	}
}

func TestQueueOutOfOrderInsertSorts(t *testing.T) {
	q := NewQueue()
	r2 := &BurstRequest{UserID: 2, ArrivalTime: 5}
	r1 := &BurstRequest{UserID: 1, ArrivalTime: 1}
	q.Push(r2)
	q.Push(r1)
	if q.Items()[0] != r1 {
		t.Error("queue should re-sort on out-of-order insert")
	}
}
