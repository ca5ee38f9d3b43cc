package traffic

import "jabasd/internal/checkpoint"

// EncodeState appends the voice source's mutable state: the on/off phase,
// its remaining duration and the draw stream. The mean durations are
// construction parameters, rebuilt from the scenario.
func (v *VoiceModel) EncodeState(w *checkpoint.Writer) {
	w.Bool(v.activityOn)
	w.F64(v.timeLeft)
	v.src.EncodeState(w)
}

// DecodeState restores the state written by EncodeState.
func (v *VoiceModel) DecodeState(rd *checkpoint.Reader) {
	v.activityOn = rd.Bool()
	v.timeLeft = rd.F64()
	v.src.DecodeState(rd)
}

// EncodeState appends the data source's mutable state: think phase, pending
// request (by value — the sharing with the engine's queues is re-established
// on restore), generation count, the one runtime-mutable config field (a
// fault-schedule load event rescales the mean reading time mid-run) and the
// draw stream.
func (d *DataModel) EncodeState(w *checkpoint.Writer) {
	w.Bool(d.thinking)
	w.F64(d.thinkLeft)
	w.I64(d.generated)
	w.F64(d.cfg.MeanReadingTimeSec)
	if d.pending != nil {
		w.Bool(true)
		w.F64(d.pending.SizeBits)
		w.F64(d.pending.ArrivalTime)
		w.F64(d.pending.Priority)
	} else {
		w.Bool(false)
	}
	d.src.EncodeState(w)
}

// DecodeState restores the state written by EncodeState. A present pending
// request is rebuilt as a fresh value carrying the model's own user id;
// Pending exposes it so the caller can re-link queue entries to it.
func (d *DataModel) DecodeState(rd *checkpoint.Reader) {
	d.thinking = rd.Bool()
	d.thinkLeft = rd.F64()
	d.generated = rd.I64()
	d.cfg.MeanReadingTimeSec = rd.F64()
	if rd.Bool() {
		d.pending = &BurstRequest{
			UserID:      d.userID,
			SizeBits:    rd.F64(),
			ArrivalTime: rd.F64(),
			Priority:    rd.F64(),
		}
	} else {
		d.pending = nil
	}
	d.src.DecodeState(rd)
}
