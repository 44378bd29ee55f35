// Package platform simulates the client hardware the paper's system runs
// on: a CPU with DRTM late launch (AMD SKINIT / Intel TXT semantics), a
// TPM attached through locality-enforcing chipset logic, physical memory
// with a DMA exclusion vector, and PS/2-style input plus a text display
// whose ownership transfers between the OS and a late-launched PAL.
//
// Hardware substitution (see DESIGN.md): a Go process cannot execute
// SKINIT, so Machine.LateLaunch reproduces its contract — atomic
// measurement of the launched code into a locality-4-reset PCR 17,
// interrupts/OS frozen, DMA protection, exclusive device ownership — as
// checkable simulation state. Each protection can be disabled
// individually, which is how the security evaluation (experiment F3)
// demonstrates that every property is load-bearing.
package platform

import (
	"errors"
	"fmt"
	"time"

	"unitp/internal/cryptoutil"
	"unitp/internal/sim"
	"unitp/internal/tpm"
)

// Protections lists the platform security properties a genuine
// DRTM-capable machine provides. The default is all-on; the security
// evaluation toggles them off one at a time.
type Protections struct {
	// MeasuredLaunch: the CPU hashes the actual launched code into
	// PCR 17. Off models a TOCTOU-style flaw where the attacker
	// substitutes the code after measurement (the machine then extends
	// the *claimed* image while running the supplied function).
	MeasuredLaunch bool

	// ExclusiveInput: keyboard ownership transfers to the PAL for the
	// duration of the launch. Off models input that remains routed
	// through (and injectable by) the OS — the property whose absence
	// re-admits transaction generators.
	ExclusiveInput bool

	// ExclusiveDisplay: display ownership transfers to the PAL.
	ExclusiveDisplay bool

	// DMAProtection: the launch programs the device exclusion vector
	// over PAL memory. Off lets peripherals (malware-programmed) read
	// PAL secrets.
	DMAProtection bool

	// LocalityGating: the chipset refuses locality assertions above the
	// caller's privilege; only the CPU's DRTM microcode reaches
	// locality 4. Off models a chipset flaw letting the OS reset the
	// DRTM PCRs itself.
	LocalityGating bool
}

// AllProtections returns the full protection set of a correct platform.
func AllProtections() Protections {
	return Protections{
		MeasuredLaunch:   true,
		ExclusiveInput:   true,
		ExclusiveDisplay: true,
		DMAProtection:    true,
		LocalityGating:   true,
	}
}

// CostModel holds the modelled latencies of the late-launch machinery
// itself (the TPM's own command costs live in the tpm.Profile).
// Defaults are era-plausible: Flicker reports OS suspend/resume in the
// tens of milliseconds and SKINIT time growing with SLB size because the
// CPU streams the image to the TPM over the slow LPC bus.
type CostModel struct {
	// OSSuspend is the cost of quiescing the OS before SKINIT.
	OSSuspend time.Duration

	// OSResume is the cost of resuming the OS afterwards.
	OSResume time.Duration

	// SKINITBase is the fixed cost of the SKINIT instruction.
	SKINITBase time.Duration

	// SKINITPerKB is the additional cost per KiB of launched image.
	SKINITPerKB time.Duration
}

// DefaultCosts returns the default late-launch cost model.
func DefaultCosts() CostModel {
	return CostModel{
		OSSuspend:   31 * time.Millisecond,
		OSResume:    29 * time.Millisecond,
		SKINITBase:  12 * time.Millisecond,
		SKINITPerKB: 2600 * time.Microsecond,
	}
}

// skinitCost returns the modelled SKINIT duration for an image size.
func (c CostModel) skinitCost(imageLen int) time.Duration {
	kb := (imageLen + 1023) / 1024
	return c.SKINITBase + time.Duration(kb)*c.SKINITPerKB
}

// CapDigest is the well-known value extended into PCR 17 when a PAL
// session ends, so that the post-session PCR state proves "the PAL ran
// AND exited" — secrets sealed to the pre-cap state become inaccessible
// the instant the OS resumes.
var CapDigest = cryptoutil.SHA1([]byte("unitp.platform.session-cap.v1"))

// ExpectedPCR17 returns the PCR 17 value immediately after a genuine late
// launch of an image with the given measurement (while the PAL runs),
// on a SKINIT platform (no SINIT chain).
func ExpectedPCR17(imageMeasurement cryptoutil.Digest) cryptoutil.Digest {
	return cryptoutil.ExtendDigest(cryptoutil.Digest{}, imageMeasurement)
}

// ExpectedPCR17Capped returns the PCR 17 value after the session cap —
// the value a verifier expects to see quoted (SKINIT platform).
func ExpectedPCR17Capped(imageMeasurement cryptoutil.Digest) cryptoutil.Digest {
	return cryptoutil.ExtendDigest(ExpectedPCR17(imageMeasurement), CapDigest)
}

// ExpectedPCR17Chain returns the dynamic PCR value after a launch that
// measures the given chain in order (TXT: SINIT then PAL).
func ExpectedPCR17Chain(measurements ...cryptoutil.Digest) cryptoutil.Digest {
	var v cryptoutil.Digest
	for _, m := range measurements {
		v = cryptoutil.ExtendDigest(v, m)
	}
	return v
}

// ExpectedPCR17ChainCapped returns the capped form of
// ExpectedPCR17Chain.
func ExpectedPCR17ChainCapped(measurements ...cryptoutil.Digest) cryptoutil.Digest {
	return cryptoutil.ExtendDigest(ExpectedPCR17Chain(measurements...), CapDigest)
}

// Platform errors.
var (
	// ErrLaunchActive is returned when a late launch is attempted while
	// one is already in progress.
	ErrLaunchActive = errors.New("platform: late launch already active")

	// ErrOSNotRunning is returned for OS-path operations while the OS is
	// suspended.
	ErrOSNotRunning = errors.New("platform: OS not running")

	// ErrEmptyImage is returned when a late launch is given no code.
	ErrEmptyImage = errors.New("platform: empty launch image")
)

// InputPump is asked for input when a PAL waits on an empty keyboard
// queue. It returns true if it delivered at least one event (typically a
// simulated human charging reaction time to the clock before pressing a
// key), false if no input will arrive.
type InputPump func() bool

// Config configures a Machine. Zero-value fields get defaults: ideal TPM
// profile, fresh virtual clock, deterministic randomness, all protections
// on, default cost model.
type Config struct {
	// Clock drives every latency in the machine.
	Clock sim.Clock

	// Random seeds the machine's entropy.
	Random *sim.Rand

	// TPMProfile selects the TPM vendor latency model.
	TPMProfile tpm.Profile

	// Keys supplies the TPM's EK/AIK keys.
	Keys tpm.KeySource

	// Protections selects which platform security properties hold; nil
	// means all.
	Protections *Protections

	// SINITImage, when set, switches the DRTM model from AMD SKINIT to
	// Intel TXT semantics: the authenticated code module is measured
	// into the dynamic PCR before the launched code, so the PAL's
	// quoted identity is the (SINIT, PAL) chain. Verifiers approve such
	// platforms with ApprovePALChain.
	SINITImage []byte
}

// Machine is one simulated client platform.
type Machine struct {
	clock       sim.Clock
	rng         *sim.Rand
	dev         *tpm.TPM
	keyboard    *Keyboard
	display     *Display
	memory      *Memory
	protections Protections
	costs       CostModel
	pump        InputPump
	sinit       []byte

	osRunning    bool
	launchActive bool
	launchCount  int
}

// New builds and boots a machine: the TPM is started and the static PCRs
// receive a simulated measured-boot chain (BIOS, bootloader, OS) so that
// the static state looks like a real platform's.
func New(cfg Config) (*Machine, error) {
	if cfg.Clock == nil {
		cfg.Clock = sim.NewVirtualClock()
	}
	if cfg.Random == nil {
		cfg.Random = sim.NewRand(1)
	}
	prot := AllProtections()
	if cfg.Protections != nil {
		prot = *cfg.Protections
	}
	dev, err := tpm.New(tpm.Config{
		Profile: cfg.TPMProfile,
		Clock:   cfg.Clock,
		Random:  cfg.Random.Fork("tpm-entropy"),
		Keys:    cfg.Keys,
	})
	if err != nil {
		return nil, fmt.Errorf("platform: create TPM: %w", err)
	}
	if err := dev.Startup(); err != nil {
		return nil, fmt.Errorf("platform: TPM startup: %w", err)
	}
	m := &Machine{
		clock:       cfg.Clock,
		rng:         cfg.Random,
		dev:         dev,
		keyboard:    NewKeyboard(cfg.Clock),
		display:     NewDisplay(cfg.Clock),
		memory:      NewMemory(),
		protections: prot,
		costs:       DefaultCosts(),
		sinit:       append([]byte{}, cfg.SINITImage...),
		osRunning:   true,
	}
	// Simulated SRTM measured boot into the static PCRs.
	for _, boot := range bootMeasurements() {
		if _, err := dev.Extend(0, boot.pcr, cryptoutil.SHA1([]byte(boot.what))); err != nil {
			return nil, fmt.Errorf("platform: boot measurement: %w", err)
		}
	}
	return m, nil
}

// Clock returns the machine's clock.
func (m *Machine) Clock() sim.Clock { return m.clock }

// Random returns the machine's deterministic random source.
func (m *Machine) Random() *sim.Rand { return m.rng }

// TPM returns the machine's TPM device.
func (m *Machine) TPM() *tpm.TPM { return m.dev }

// Keyboard returns the machine's keyboard.
func (m *Machine) Keyboard() *Keyboard { return m.keyboard }

// Display returns the machine's display.
func (m *Machine) Display() *Display { return m.display }

// Memory returns the machine's physical memory model.
func (m *Machine) Memory() *Memory { return m.memory }

// Protections returns the active protection set.
func (m *Machine) Protections() Protections { return m.protections }

// Costs returns the late-launch cost model.
func (m *Machine) Costs() CostModel { return m.costs }

// OSRunning reports whether the commodity OS is currently scheduled.
func (m *Machine) OSRunning() bool { return m.osRunning }

// LaunchCount reports how many late launches have completed.
func (m *Machine) LaunchCount() int { return m.launchCount }

// SetInputPump registers the callback a waiting PAL uses to solicit human
// input (see InputPump).
func (m *Machine) SetInputPump(p InputPump) { m.pump = p }

// OSLocality returns the TPM locality OS-level software commands arrive
// at: locality 0 on a correct platform.
func (m *Machine) OSLocality() tpm.Locality { return 0 }

// LaunchChain returns the measurement chain a genuine launch of an
// image with the given measurement produces on this platform — just the
// image on SKINIT, (SINIT, image) on TXT.
func (m *Machine) LaunchChain(imageMeasurement cryptoutil.Digest) []cryptoutil.Digest {
	if len(m.sinit) > 0 {
		return []cryptoutil.Digest{cryptoutil.SHA1(m.sinit), imageMeasurement}
	}
	return []cryptoutil.Digest{imageMeasurement}
}

// LaunchIdentity returns the pre-cap dynamic PCR value a genuine launch
// of the image reaches on this platform — the state sealed blobs for
// that PAL must target.
func (m *Machine) LaunchIdentity(imageMeasurement cryptoutil.Digest) cryptoutil.Digest {
	return ExpectedPCR17Chain(m.LaunchChain(imageMeasurement)...)
}

// AssertLocality models software asking the chipset for an elevated
// locality. With LocalityGating on (correct hardware) the request is
// clamped to locality 0; with it off the attacker gets what they asked
// for — the chipset-flaw ablation of experiment F3.
func (m *Machine) AssertLocality(want tpm.Locality) tpm.Locality {
	if m.protections.LocalityGating {
		return 0
	}
	return want
}

// Reboot power-cycles the platform: the TPM restarts (volatile PCR
// state cleared; keys, NV storage, and monotonic counters persist, as
// on real hardware), the measured-boot chain re-extends into the static
// PCRs, devices return to the OS, and the OS comes back up. A reboot
// during a late launch is refused — the simulator has no model for
// tearing power out from under a PAL mid-session.
func (m *Machine) Reboot() error {
	if m.launchActive {
		return ErrLaunchActive
	}
	m.clock.Sleep(m.costs.OSSuspend) // shutdown quiesce
	if err := m.dev.Startup(); err != nil {
		return fmt.Errorf("platform: reboot TPM startup: %w", err)
	}
	for _, boot := range bootMeasurements() {
		if _, err := m.dev.Extend(0, boot.pcr, cryptoutil.SHA1([]byte(boot.what))); err != nil {
			return fmt.Errorf("platform: reboot measurement: %w", err)
		}
	}
	m.keyboard.setOwner(OwnerOS)
	m.display.setOwner(OwnerOS)
	m.memory.SetDEVActive(false)
	m.clock.Sleep(m.costs.OSResume) // boot
	m.osRunning = true
	return nil
}

// bootMeasurement is one SRTM measured-boot entry.
type bootMeasurement struct {
	pcr  int
	what string
}

// bootMeasurements is the simulated SRTM chain.
func bootMeasurements() []bootMeasurement {
	return []bootMeasurement{
		{0, "BIOS-1.02"},
		{2, "OptionROMs"},
		{4, "MBR+bootloader"},
		{8, "commodity-os-kernel"},
	}
}

// palMemoryRegion is the region name holding PAL runtime secrets.
const palMemoryRegion = "pal-secrets"

// LaunchOption customizes a late launch (attack modelling).
type LaunchOption func(*launchOpts)

type launchOpts struct {
	claimedImage []byte
}

// WithClaimedImage supplies a different image for measurement than the
// code that actually runs — the TOCTOU substitution only possible when
// MeasuredLaunch is off. With MeasuredLaunch on, the option is ignored
// and the actual image is measured, exactly as SKINIT guarantees.
func WithClaimedImage(image []byte) LaunchOption {
	return func(o *launchOpts) {
		o.claimedImage = append([]byte{}, image...)
	}
}

// LaunchReport breaks down one late-launch session for experiment T2.
type LaunchReport struct {
	// Measurement is the digest extended into PCR 17.
	Measurement cryptoutil.Digest

	// Suspend, SKINIT, PALRun, Resume are per-phase durations; PALRun
	// includes the TPM commands the PAL issued.
	Suspend time.Duration
	SKINIT  time.Duration
	PALRun  time.Duration
	Resume  time.Duration

	// Total is the end-to-end session duration.
	Total time.Duration

	// PALErr is the error the PAL function returned, if any (the
	// session still caps and resumes).
	PALErr error
}

// LateLaunch performs a DRTM late launch of image, runs fn inside the
// isolated environment, caps the session, and resumes the OS. The
// sequence reproduces SKINIT's contract point by point:
//
//  1. The OS is suspended (no code but the PAL runs until resume).
//  2. Devices transfer to the PAL (per the protection set).
//  3. PAL memory goes under the DMA exclusion vector.
//  4. The dynamic PCRs are reset at locality 4 and the image measurement
//     is extended into PCR 17 — unforgeable from any other locality.
//  5. fn runs with a locality-2 environment.
//  6. CapDigest is extended into PCR 17, PAL memory is erased, devices
//     and control return to the OS.
func (m *Machine) LateLaunch(image []byte, fn func(*LaunchEnv) error, opts ...LaunchOption) (*LaunchReport, error) {
	if m.launchActive {
		return nil, ErrLaunchActive
	}
	if !m.osRunning {
		return nil, ErrOSNotRunning
	}
	if len(image) == 0 {
		return nil, ErrEmptyImage
	}
	var o launchOpts
	for _, opt := range opts {
		opt(&o)
	}

	report := &LaunchReport{}
	total := sim.NewStopwatch(m.clock)
	phase := sim.NewStopwatch(m.clock)

	// Phase 1: suspend the OS.
	m.launchActive = true
	m.osRunning = false
	m.clock.Sleep(m.costs.OSSuspend)
	report.Suspend = phase.Restart()

	// Phase 2+3: device ownership and DMA protection.
	if m.protections.ExclusiveInput {
		m.keyboard.setOwner(OwnerPAL)
	}
	if m.protections.ExclusiveDisplay {
		m.display.setOwner(OwnerPAL)
	}
	if m.protections.DMAProtection {
		m.memory.Protect(palMemoryRegion)
		m.memory.SetDEVActive(true)
	}

	// Phase 4: SKINIT — dynamic PCR reset at locality 4, then measure.
	m.clock.Sleep(m.costs.skinitCost(len(image)))
	// The CPU resets the locality-4 registers (17-20); the launched
	// environment resets its own registers (21-22) at locality 2,
	// mirroring the TXT split.
	for _, idx := range tpm.DynamicPCRs() {
		err := m.dev.PCRReset(4, idx)
		if errors.Is(err, tpm.ErrPCRNotResettable) {
			err = m.dev.PCRReset(2, idx)
		}
		if err != nil {
			m.abortLaunch()
			return nil, fmt.Errorf("platform: DRTM PCR reset: %w", err)
		}
	}
	// TXT platforms measure the SINIT ACM before the launched code.
	if len(m.sinit) > 0 {
		if _, err := m.dev.Extend(4, tpm.PCRDRTM, cryptoutil.SHA1(m.sinit)); err != nil {
			m.abortLaunch()
			return nil, fmt.Errorf("platform: SINIT measurement extend: %w", err)
		}
	}
	measured := image
	if !m.protections.MeasuredLaunch && o.claimedImage != nil {
		measured = o.claimedImage
	}
	report.Measurement = cryptoutil.SHA1(measured)
	if _, err := m.dev.Extend(4, tpm.PCRDRTM, report.Measurement); err != nil {
		m.abortLaunch()
		return nil, fmt.Errorf("platform: DRTM measurement extend: %w", err)
	}
	report.SKINIT = phase.Restart()

	// Phase 5: run the PAL.
	env := &LaunchEnv{machine: m}
	report.PALErr = fn(env)
	env.revoked = true
	report.PALRun = phase.Restart()

	// Phase 6: cap, scrub, resume.
	if _, err := m.dev.Extend(2, tpm.PCRDRTM, CapDigest); err != nil {
		m.abortLaunch()
		return nil, fmt.Errorf("platform: session cap extend: %w", err)
	}
	m.memory.Erase(palMemoryRegion)
	m.memory.SetDEVActive(false)
	m.memory.Unprotect(palMemoryRegion)
	m.keyboard.setOwner(OwnerOS)
	m.display.setOwner(OwnerOS)
	m.clock.Sleep(m.costs.OSResume)
	m.osRunning = true
	m.launchActive = false
	m.launchCount++
	report.Resume = phase.Restart()
	report.Total = total.Elapsed()
	return report, nil
}

// abortLaunch restores OS control after an internal launch failure.
func (m *Machine) abortLaunch() {
	m.memory.Erase(palMemoryRegion)
	m.memory.SetDEVActive(false)
	m.memory.Unprotect(palMemoryRegion)
	m.keyboard.setOwner(OwnerOS)
	m.display.setOwner(OwnerOS)
	m.osRunning = true
	m.launchActive = false
}

// LaunchEnv is the execution environment handed to PAL code: locality-2
// TPM access, exclusive devices (per the protection set), protected
// scratch memory, and the clock for charging compute time. It is valid
// only for the duration of the launch.
type LaunchEnv struct {
	machine *Machine
	revoked bool
}

// errRevoked reports use of an environment after its session ended.
var errRevoked = errors.New("platform: launch environment used after session end")

func (e *LaunchEnv) check() error {
	if e.revoked {
		return errRevoked
	}
	return nil
}

// Locality returns the TPM locality of the late-launched environment.
func (e *LaunchEnv) Locality() tpm.Locality { return 2 }

// LaunchIdentity returns the pre-cap dynamic PCR value a genuine launch
// of an image with the given measurement reaches on this platform
// (accounting for a SINIT chain). PALs use it to seal secrets to other
// PALs' identities portably across DRTM flavours.
func (e *LaunchEnv) LaunchIdentity(imageMeasurement cryptoutil.Digest) cryptoutil.Digest {
	return e.machine.LaunchIdentity(imageMeasurement)
}

// Clock returns the machine clock (for charging modelled PAL compute).
func (e *LaunchEnv) Clock() sim.Clock { return e.machine.clock }

// ChargeCompute advances the clock by the modelled cost of PAL-internal
// computation.
func (e *LaunchEnv) ChargeCompute(d time.Duration) {
	if e.check() == nil {
		e.machine.clock.Sleep(d)
	}
}

// Extend extends a PCR at locality 2.
func (e *LaunchEnv) Extend(idx int, d cryptoutil.Digest) (cryptoutil.Digest, error) {
	if err := e.check(); err != nil {
		return cryptoutil.Digest{}, err
	}
	return e.machine.dev.Extend(2, idx, d)
}

// ResetPCR resets a PCR at locality 2 (subject to the TPM's per-PCR
// policy). The confirmation PAL resets the application PCR at session
// start so its output binding is deterministic.
func (e *LaunchEnv) ResetPCR(idx int) error {
	if err := e.check(); err != nil {
		return err
	}
	return e.machine.dev.PCRReset(2, idx)
}

// PCRRead reads a PCR.
func (e *LaunchEnv) PCRRead(idx int) (cryptoutil.Digest, error) {
	if err := e.check(); err != nil {
		return cryptoutil.Digest{}, err
	}
	return e.machine.dev.PCRRead(idx)
}

// Unseal unseals a blob at locality 2 (subject to its policy).
func (e *LaunchEnv) Unseal(blob *tpm.SealedBlob) ([]byte, error) {
	if err := e.check(); err != nil {
		return nil, err
	}
	return e.machine.dev.Unseal(2, blob)
}

// Seal seals data at locality 2.
func (e *LaunchEnv) Seal(selection []int, releaseComposite cryptoutil.Digest, releaseLocalities tpm.LocalityMask, data []byte) (*tpm.SealedBlob, error) {
	if err := e.check(); err != nil {
		return nil, err
	}
	return e.machine.dev.Seal(2, selection, releaseComposite, releaseLocalities, data)
}

// SealCurrent seals data to the current values of the selected PCRs at
// locality 2.
func (e *LaunchEnv) SealCurrent(selection []int, releaseLocalities tpm.LocalityMask, data []byte) (*tpm.SealedBlob, error) {
	if err := e.check(); err != nil {
		return nil, err
	}
	return e.machine.dev.SealCurrent(2, selection, releaseLocalities, data)
}

// GetRandom draws entropy from the TPM.
func (e *LaunchEnv) GetRandom(n int) ([]byte, error) {
	if err := e.check(); err != nil {
		return nil, err
	}
	return e.machine.dev.GetRandom(n)
}

// Display writes a line to the screen as the PAL. If the protection set
// left the display with the OS, the write fails — surfaced, not hidden,
// because the PAL must know it has no output channel.
func (e *LaunchEnv) Display(text string) error {
	if err := e.check(); err != nil {
		return err
	}
	return e.machine.display.Write(OwnerPAL, text)
}

// ReadKey pops one pending keystroke, reading as the PAL. With exclusive
// input the PAL polls the controller directly; without it the read fails
// (the PAL does not own the device) and the caller must fall back to
// OS-mediated input — the degraded mode experiment F3 exploits.
func (e *LaunchEnv) ReadKey() (KeyEvent, error) {
	if err := e.check(); err != nil {
		return KeyEvent{}, err
	}
	owner := OwnerPAL
	if !e.machine.protections.ExclusiveInput {
		owner = OwnerOS
	}
	return e.machine.keyboard.Read(owner)
}

// WaitKey reads a keystroke, soliciting the input pump (the simulated
// human) when the queue is empty. It fails with ErrNoInput when the pump
// is exhausted or absent.
func (e *LaunchEnv) WaitKey() (KeyEvent, error) {
	for {
		ev, err := e.ReadKey()
		if err == nil {
			return ev, nil
		}
		if !errors.Is(err, ErrNoInput) {
			return KeyEvent{}, err
		}
		if e.machine.pump == nil || !e.machine.pump() {
			return KeyEvent{}, ErrNoInput
		}
	}
}

// StoreSecret places data in the DMA-protected PAL memory region.
func (e *LaunchEnv) StoreSecret(data []byte) error {
	if err := e.check(); err != nil {
		return err
	}
	e.machine.memory.Store(palMemoryRegion, data)
	return nil
}

// LoadSecret reads back the PAL memory region.
func (e *LaunchEnv) LoadSecret() ([]byte, error) {
	if err := e.check(); err != nil {
		return nil, err
	}
	return e.machine.memory.Load(palMemoryRegion)
}
