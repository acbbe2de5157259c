package torture

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"time"

	"repro/internal/core"
	"repro/internal/ftl"
	"repro/internal/nand"
	"repro/internal/storage"
)

// Device workload shape: each transaction writes devicePages distinct
// pages; every deviceAbortEvery-th one aborts deliberately.
const (
	deviceTxns       = 320
	deviceCutEvery   = 160
	devicePages      = 6
	deviceAbortEvery = 5
)

// Chaos (degraded-mode) sizing. The deadline must exceed nothing in
// particular — a healthy-but-slow command that overruns it simply
// completes late (the queue keeps a late success) — but deadline,
// stall and attempt budget must satisfy stall/deadline+1 << attempts
// so a hung unit always drains within one command's retry budget.
const (
	chaosDeadline      = 5 * time.Millisecond
	chaosRetries       = 12
	chaosTransientProb = 0.01
	chaosHangProb      = 0.002
	chaosHangStall     = 20 * time.Millisecond
	chaosHangEvery     = 40 // harness-driven stall cadence, in transactions
)

// deviceLoad drives the device command set directly, against an oracle
// that compares full pages: any torn, stale or cross-wired read is
// caught, not just flipped status bits.
type deviceLoad struct {
	oneDevice
	scale float64          // fault-model rate multiplier; 0 = ideal flash
	fault *nand.FaultModel // overrides scale entirely (e.g. erase fails only)
	// chaos turns on the degraded-mode plane: command deadlines with
	// bounded retry, and seeded transient interface faults. hangEvery > 0
	// adds die stalls, probabilistic at the chip plus a deterministic
	// stall of one unit (round-robin) for hangStall before every
	// hangEvery-th transaction.
	chaos     bool
	hangEvery int
	hangStall time.Duration

	seed    int64
	rng     *rand.Rand
	oracle  map[int64][]byte // lpn -> committed content
	pending map[int64][]byte // the open transaction's writes
}

// deviceProfile is the small geometry the device-level torture runs on:
// enough blocks for GC, retirement and meta-ring churn, small enough
// that thousands of transactions simulate in milliseconds.
func deviceProfile() storage.Profile {
	return storage.Profile{
		Name: "torture-small",
		Nand: nand.Config{
			Blocks:        48,
			PagesPerBlock: 32,
			PageSize:      1024,
			ReadLatency:   50 * time.Microsecond,
			ProgLatency:   300 * time.Microsecond,
			EraseLatency:  1500 * time.Microsecond,
			Channels:      2,
			Ways:          1,
		},
		CmdOverhead:     20 * time.Microsecond,
		TransferPerPage: 5 * time.Microsecond,
		BarrierOverhead: 100 * time.Microsecond,
		Channels:        2,
	}
}

func (d *deviceLoad) setup(seed int64) (*rand.Rand, error) {
	fault := d.fault
	if fault == nil && (d.scale > 0 || d.chaos) {
		fault = nand.DefaultFaultModel(seed).Scale(d.scale)
		if d.chaos {
			fault.TransientProb = chaosTransientProb
		}
		if d.hangEvery > 0 {
			fault.HangProb = chaosHangProb
			fault.HangStall = d.hangStall
		}
	}
	opts := storage.Options{
		Transactional: true,
		XFTL:          core.Config{TableEntries: 128, CommitMapPages: 0},
		Fault:         fault,
	}
	if d.chaos {
		opts.CmdDeadline, opts.CmdRetries = chaosDeadline, chaosRetries
	}
	prof := deviceProfile()
	// Half the data blocks exported: retirements eat physical blocks at
	// scaled fault rates, and GC must keep its headroom through them.
	opts.FTL = ftl.Config{
		LogicalPages: int64(prof.Nand.Blocks-4) * int64(prof.Nand.PagesPerBlock) / 2,
		MetaBlocks:   4,
		GCLowWater:   3,
		SpareBlocks:  3,
	}
	dev, err := storage.New(prof, nil, opts)
	if err != nil {
		return nil, err
	}
	d.dev, d.seed = dev, seed
	d.rng = rand.New(rand.NewSource(seed * 1000003))
	d.oracle, d.pending = make(map[int64][]byte), nil
	return d.rng, nil
}

func (d *deviceLoad) exec(i int) error {
	if d.hangEvery > 0 && i%d.hangEvery == 0 {
		d.dev.HangUnit((i/d.hangEvery)%d.dev.Profile().Nand.Units(), d.hangStall)
	}
	// Keep the working set well under capacity so GC has slack even
	// after retirements eat into overprovisioning.
	span := d.dev.LogicalPages() / 2
	lpns := distinct(devicePages, func() int64 { return d.rng.Int63n(span) })
	d.pending = make(map[int64][]byte, len(lpns))
	for _, lpn := range lpns {
		data := pageContent(d.seed, lpn, i, d.dev.PageSize())
		if err := d.dev.WriteTx(uint64(i), lpn, data); err != nil {
			return err
		}
		d.pending[lpn] = data
	}
	return nil
}

func (d *deviceLoad) commit(i int) (bool, error) {
	aborted := i%deviceAbortEvery == 0
	var err error
	if aborted {
		err = d.dev.Abort(uint64(i))
	} else {
		err = d.dev.Commit(uint64(i))
	}
	if err != nil {
		return aborted, err
	}
	if !aborted {
		maps.Copy(d.oracle, d.pending)
	}
	d.pending = nil
	return aborted, nil
}

func (d *deviceLoad) recover(inDoubt bool) (bool, error) {
	if err := d.dev.Restart(); err != nil {
		return false, fmt.Errorf("restart: %w", err)
	}
	buf := make([]byte, d.dev.PageSize())
	newN, oldN := 0, 0
	for _, lpn := range sortedKeys(d.pending) {
		if err := d.dev.Read(lpn, buf); err != nil {
			return false, fmt.Errorf("pending read lpn %d: %w", lpn, err)
		}
		switch {
		case inDoubt && bytes.Equal(buf, d.pending[lpn]):
			newN++
		case bytes.Equal(buf, d.committed(lpn)):
			oldN++
		case inDoubt:
			return false, fmt.Errorf("in-doubt lpn %d: content is neither old nor new version", lpn)
		default:
			return false, fmt.Errorf("durability violation: uncommitted write to lpn %d survived recovery", lpn)
		}
	}
	if newN > 0 && oldN > 0 {
		return false, fmt.Errorf("atomicity violation: in-doubt commit recovered %d new and %d old pages", newN, oldN)
	}
	if newN > 0 {
		maps.Copy(d.oracle, d.pending)
	}
	d.pending = nil
	return false, d.finish()
}

// finish checks every committed page byte-for-byte.
func (d *deviceLoad) finish() error {
	buf := make([]byte, d.dev.PageSize())
	for _, lpn := range sortedKeys(d.oracle) {
		if err := d.dev.Read(lpn, buf); err != nil {
			return fmt.Errorf("verify read lpn %d: %w", lpn, err)
		}
		if !bytes.Equal(buf, d.oracle[lpn]) {
			return fmt.Errorf("durability violation: committed lpn %d lost its content", lpn)
		}
	}
	return nil
}

// committed is lpn's committed content per the oracle (zeros for a
// never-written page, as the device returns for unmapped reads).
func (d *deviceLoad) committed(lpn int64) []byte {
	if c, ok := d.oracle[lpn]; ok {
		return c
	}
	return make([]byte, d.dev.PageSize())
}

// pageContent generates the byte-exact payload for (lpn, version).
func pageContent(seed, lpn int64, version, size int) []byte {
	buf := make([]byte, size)
	binary.LittleEndian.PutUint64(buf[0:], uint64(seed))
	binary.LittleEndian.PutUint64(buf[8:], uint64(lpn))
	binary.LittleEndian.PutUint64(buf[16:], uint64(version))
	// Fill the body from a cheap xorshift so every byte is versioned.
	x := uint64(seed)*0x9e3779b97f4a7c15 + uint64(lpn)<<32 + uint64(version)
	for i := 24; i+8 <= size; i += 8 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		binary.LittleEndian.PutUint64(buf[i:], x)
	}
	return buf
}

func sortedKeys(m map[int64][]byte) []int64 {
	ks := make([]int64, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	slices.Sort(ks)
	return ks
}
