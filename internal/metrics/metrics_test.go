package metrics

import (
	"errors"
	"math"
	"testing"
)

func TestConfusionAdd(t *testing.T) {
	var c Confusion
	c.Add(true, true)   // TP
	c.Add(true, false)  // FP
	c.Add(false, true)  // FN
	c.Add(false, false) // TN
	if c.TP != 1 || c.FP != 1 || c.FN != 1 || c.TN != 1 {
		t.Errorf("confusion = %+v", c)
	}
}

func TestMerge(t *testing.T) {
	a := Confusion{TP: 1, FP: 2, TN: 3, FN: 4}
	b := Confusion{TP: 10, FP: 20, TN: 30, FN: 40}
	a.Merge(b)
	if a.TP != 11 || a.FP != 22 || a.TN != 33 || a.FN != 44 {
		t.Errorf("merged = %+v", a)
	}
}

func TestPrecisionAndRecall(t *testing.T) {
	c := Confusion{TP: 6, FP: 2, FN: 4}
	if got := c.Precision(); got != 0.75 {
		t.Errorf("precision = %v", got)
	}
	if got := c.Recall(); got != 0.6 {
		t.Errorf("recall = %v", got)
	}
	var zero Confusion
	if zero.Precision() != 0 || zero.Recall() != 0 {
		t.Error("empty matrix should report 0")
	}
}

func TestFBeta(t *testing.T) {
	c := Confusion{TP: 6, FP: 2, FN: 4} // P=0.75, R=0.6
	// F0.5 = 1.25*0.75*0.6 / (0.25*0.75 + 0.6) = 0.5625/0.7875.
	want := 0.5625 / 0.7875
	if got := c.F05(); math.Abs(got-want) > 1e-12 {
		t.Errorf("F0.5 = %v, want %v", got, want)
	}
	// F1 = 2PR/(P+R).
	wantF1 := 2 * 0.75 * 0.6 / 1.35
	if got := c.F1(); math.Abs(got-wantF1) > 1e-12 {
		t.Errorf("F1 = %v, want %v", got, wantF1)
	}
	if _, err := c.FBeta(0); !errors.Is(err, ErrBadBeta) {
		t.Errorf("FBeta(0) error = %v", err)
	}
	if _, err := c.FBeta(-1); !errors.Is(err, ErrBadBeta) {
		t.Errorf("FBeta(-1) error = %v", err)
	}
	var zero Confusion
	if zero.F05() != 0 {
		t.Error("zero matrix F0.5 should be 0")
	}
}

func TestF05WeighsPrecision(t *testing.T) {
	// Same F1, different P/R balance: high precision must win F0.5.
	highP := Confusion{TP: 30, FP: 10, FN: 70} // P=0.75, R=0.3
	highR := Confusion{TP: 30, FP: 70, FN: 10} // P=0.3, R=0.75
	if highP.F05() <= highR.F05() {
		t.Errorf("F0.5: high-precision %v should beat high-recall %v", highP.F05(), highR.F05())
	}
}

func TestEvaluateDrives(t *testing.T) {
	preds := []DrivePrediction{
		{DriveID: 1, FirstAlarmDay: 10, FailDay: 25}, // TP: fails 15 days after alarm
		{DriveID: 2, FirstAlarmDay: 10, FailDay: 60}, // FP: fails too late (window 30)
		{DriveID: 3, FirstAlarmDay: 10, FailDay: -1}, // FP: healthy
		{DriveID: 4, FirstAlarmDay: -1, FailDay: 40}, // FN: missed failure
		{DriveID: 5, FirstAlarmDay: -1, FailDay: -1}, // TN
		{DriveID: 6, FirstAlarmDay: 50, FailDay: 40}, // FN: alarm after failure
		{DriveID: 7, FirstAlarmDay: 40, FailDay: 40}, // TP: alarm on the day
	}
	c := EvaluateDrives(preds, 30)
	if c.TP != 2 || c.FP != 2 || c.FN != 2 || c.TN != 1 {
		t.Errorf("confusion = %+v", c)
	}
}

func TestEvaluateDrivesWindowBoundary(t *testing.T) {
	preds := []DrivePrediction{
		{DriveID: 1, FirstAlarmDay: 0, FailDay: 30}, // exactly window
		{DriveID: 2, FirstAlarmDay: 0, FailDay: 31}, // one past window
	}
	c := EvaluateDrives(preds, 30)
	if c.TP != 1 || c.FP != 1 {
		t.Errorf("boundary confusion = %+v", c)
	}
}

func TestAFR(t *testing.T) {
	// 10 failures over 1000 drives running a full year.
	got := AFR(10, 365*1000)
	if math.Abs(got-0.01) > 1e-12 {
		t.Errorf("AFR = %v, want 0.01", got)
	}
	if AFR(5, 0) != 0 {
		t.Error("AFR with no drive-days should be 0")
	}
}

func TestConfusionString(t *testing.T) {
	s := Confusion{TP: 1}.String()
	if s == "" {
		t.Error("String should not be empty")
	}
}
