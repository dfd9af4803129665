package gen

import (
	"fmt"

	"pjoin/internal/punct"
	"pjoin/internal/stream"
	"pjoin/internal/value"
	"pjoin/internal/vtime"
)

// Sensor-network schemas (the paper's §1 motivation): epoch-stamped
// readings joined with epoch-stamped zone alerts.
var (
	ReadingsSchema = stream.MustSchema("Readings",
		stream.Field{Name: "epoch", Kind: value.KindInt},
		stream.Field{Name: "sensor", Kind: value.KindString},
		stream.Field{Name: "temp", Kind: value.KindFloat},
	)
	AlertsSchema = stream.MustSchema("Alerts",
		stream.Field{Name: "epoch", Kind: value.KindInt},
		stream.Field{Name: "zone", Kind: value.KindString},
	)
)

// Sensor ports: readings arrive on port 0, alerts on port 1.
const (
	SensorPortReadings = 0
	SensorPortAlerts   = 1
)

// SensorConfig configures the sensor-network workload.
type SensorConfig struct {
	Seed uint64
	// Epochs is the number of observation epochs to generate.
	Epochs int
	// EpochLength is each epoch's duration. When an epoch ends, BOTH
	// streams punctuate it — the base station knows no more data for
	// that epoch will arrive.
	EpochLength stream.Time
	// Sensors is the number of sensors reporting each epoch (default 4).
	Sensors int
	// ReadingMean is the mean inter-arrival of readings within an epoch
	// (default EpochLength / 4).
	ReadingMean stream.Time
	// AlertProb is the probability (in percent, 0-100) that an epoch
	// raises a zone alert (default 50).
	AlertProb int
}

// Sensors generates the epoch-punctuated sensor workload. Punctuations
// are honest by construction: an epoch's punctuation appears only after
// the epoch's last item.
func Sensors(cfg SensorConfig) ([]Arrival, error) {
	if cfg.Epochs <= 0 {
		return nil, fmt.Errorf("gen: sensors: Epochs must be positive")
	}
	if cfg.EpochLength <= 0 {
		return nil, fmt.Errorf("gen: sensors: EpochLength must be positive")
	}
	if cfg.Sensors == 0 {
		cfg.Sensors = 4
	}
	if cfg.Sensors < 0 {
		return nil, fmt.Errorf("gen: sensors: Sensors must be positive")
	}
	if cfg.ReadingMean == 0 {
		cfg.ReadingMean = cfg.EpochLength / 4
	}
	if cfg.ReadingMean < 0 {
		return nil, fmt.Errorf("gen: sensors: ReadingMean must be positive")
	}
	if cfg.AlertProb == 0 {
		cfg.AlertProb = 50
	}
	if cfg.AlertProb < 0 || cfg.AlertProb > 100 {
		return nil, fmt.Errorf("gen: sensors: AlertProb must be in [0,100]")
	}

	rng := vtime.NewRNG(cfg.Seed)
	zones := []string{"north", "south", "east", "west"}
	var out []Arrival
	stamp := new(clock).stamp
	for epoch := int64(0); epoch < int64(cfg.Epochs); epoch++ {
		start := stream.Time(epoch) * cfg.EpochLength
		end := start + cfg.EpochLength
		// Readings at Poisson times within the epoch, per the mean.
		at := start + rng.ExpDuration(cfg.ReadingMean)
		var epochItems []Arrival
		for at < end {
			t := stream.MustTuple(ReadingsSchema, at,
				value.Int(epoch),
				value.Str(fmt.Sprintf("s%d", rng.Intn(cfg.Sensors)+1)),
				value.Float(15+10*rng.Float64()),
			)
			epochItems = append(epochItems, Arrival{Port: SensorPortReadings, Item: stream.TupleItem(t)})
			at += rng.ExpDuration(cfg.ReadingMean)
		}
		if rng.Intn(100) < cfg.AlertProb {
			aAt := start + stream.Time(rng.Int63n(int64(cfg.EpochLength)))
			t := stream.MustTuple(AlertsSchema, aAt,
				value.Int(epoch), value.Str(zones[rng.Intn(len(zones))]))
			epochItems = append(epochItems, Arrival{Port: SensorPortAlerts, Item: stream.TupleItem(t)})
		}
		// Emit the epoch's items in time order with strict stamps.
		sortArrivalsByTs(epochItems)
		for _, a := range epochItems {
			ts := stamp(a.Item.Ts)
			if a.Item.Kind == stream.KindTuple {
				a.Item.Tuple.Ts = ts
				a.Item = stream.TupleItem(a.Item.Tuple)
			}
			out = append(out, a)
		}
		// Both streams punctuate the finished epoch (fixed order so the
		// schedule is deterministic).
		for _, pw := range []struct{ port, width int }{
			{SensorPortReadings, ReadingsSchema.Width()},
			{SensorPortAlerts, AlertsSchema.Width()},
		} {
			p := punct.MustKeyOnly(pw.width, 0, punct.Const(value.Int(epoch)))
			out = append(out, Arrival{Port: pw.port, Item: stream.PunctItem(p, stamp(end))})
		}
	}
	return out, nil
}

func sortArrivalsByTs(arrs []Arrival) {
	for i := 1; i < len(arrs); i++ {
		for j := i; j > 0 && arrs[j].Item.Ts < arrs[j-1].Item.Ts; j-- {
			arrs[j], arrs[j-1] = arrs[j-1], arrs[j]
		}
	}
}
