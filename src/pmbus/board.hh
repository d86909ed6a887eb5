/**
 * @file
 * A full experimental board: the device, its chip-specific fault
 * personality, the UCD9248 regulator, the serial readback link, a power
 * meter, and the (optional) heat chamber around it. This is the
 * software equivalent of the paper's Fig 2 setup; the characterization
 * harness only talks to this class, never to the fault model directly,
 * so the measurement path matches the hardware methodology.
 *
 * The board can operate in a harsh environment (attachNoise()): serial
 * frames corrupt, PMBus transactions NACK, latched setpoints jitter,
 * the configuration crashes spuriously in a band above Vcrash, and the
 * ambient drifts. The instrumentation path then defends itself with
 * CRC-verified retransmission, verify-after-write setpoint retries, and
 * a recoverable-error measurement path (try* methods) that campaign
 * engines use to soft-reset and resume instead of dying.
 */

#ifndef UVOLT_PMBUS_BOARD_HH
#define UVOLT_PMBUS_BOARD_HH

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "fpga/device.hh"
#include "fpga/platform.hh"
#include "pmbus/fault_injector.hh"
#include "pmbus/serial_link.hh"
#include "pmbus/ucd9248.hh"
#include "util/error.hh"
#include "util/rng.hh"
#include "vmodel/chip_fault_model.hh"

namespace uvolt::pmbus
{

/** Error/retry counters of the PMBus control channel. */
struct PmbusStats
{
    std::uint64_t transactions = 0;     ///< attempted bus transactions
    std::uint64_t retries = 0;          ///< transaction-level retries
    std::uint64_t verifyMismatches = 0; ///< setpoints rewritten by verify
    std::uint64_t exhausted = 0;        ///< setpoint writes that gave up
};

/**
 * The chip personality of @a spec, built once and shared. The weak-cell
 * map is immutable after construction and deterministic in (serial
 * number, geometry, params), so every Board of the same die can alias
 * one instance; a process-wide single-flight cache makes repeat lookups
 * (e.g. one Board per fleet worker) a map probe instead of a full
 * weak-cell synthesis. Thread-safe.
 */
std::shared_ptr<const vmodel::ChipFaultModel>
sharedChipModel(const fpga::PlatformSpec &spec,
                const vmodel::VariationParams &params = {});

/** One instrumented board under test. */
class Board
{
  public:
    /**
     * Power up the board described by @a spec at nominal voltages,
     * 50 degC ambient, with the chip personality derived from the spec's
     * serial number.
     * @param params fault-model shape overrides (ablation studies)
     */
    explicit Board(const fpga::PlatformSpec &spec,
                   const vmodel::VariationParams &params = {});

    /**
     * Power up a board around an already-built chip personality
     * (sharedChipModel()). This is the cheap per-worker constructor of
     * fleet campaigns: the expensive weak-cell synthesis is skipped and
     * the immutable model is aliased, never copied.
     */
    Board(const fpga::PlatformSpec &spec,
          std::shared_ptr<const vmodel::ChipFaultModel> model);

    const fpga::PlatformSpec &spec() const { return device_.spec(); }
    fpga::Device &device() { return device_; }
    const fpga::Device &device() const { return device_; }
    const vmodel::ChipFaultModel &faultModel() const { return *faults_; }
    Ucd9248 &regulator() { return regulator_; }
    SerialLink &link() { return link_; }
    const SerialLink &link() const { return link_; }

    /**
     * Put the board in a harsh environment: all instrumentation channels
     * start drawing injected faults from a seeded stream. Call once,
     * before a campaign; the quiet default has zero overhead.
     */
    void attachNoise(const NoiseConfig &config);

    /** The active noise source (nullptr in the quiet lab). */
    const FaultInjector *injector() const { return injector_.get(); }

    /** Bound on PMBus setpoint write/verify attempts (>= 1). */
    void setMaxPmbusAttempts(int attempts);

    /** Per-channel error/retry statistics of the control path. */
    const PmbusStats &pmbusStats() const { return pmbusStats_; }

    /**
     * Fatal-on-error forms of trySetVccBramMv() / trySetVccIntMv(),
     * kept while the repository benchmark (perfbench/) calls both
     * halves of the VCCBRAM pair; VCCINT keeps the same shape.
     */
    void setVccBramMv(int mv);
    void setVccIntMv(int mv);

    /**
     * Harsh-environment setpoint write: PAGE + VOUT_COMMAND + READ_VOUT
     * verify-after-write, retrying NACKed or mis-latched transactions up
     * to the attempt bound. Error pmbusExhausted when it never converges.
     */
    Expected<void> trySetVccBramMv(int mv);
    Expected<void> trySetVccIntMv(int mv);

    /** Current VCCBRAM level as the regulator reports it. */
    int vccBramMv() const;

    /** Heat-chamber control: set the on-board ambient temperature. */
    void setAmbientC(double temp_c) { ambientC_ = temp_c; }
    double ambientC() const { return ambientC_; }

    /** Commanded ambient plus any harsh-environment drift. */
    double effectiveAmbientC() const;

    /** DONE pin: high while the configuration is alive (not crashed). */
    bool donePin() const { return device_.operational() && !forcedCrash_; }

    /** Restore nominal voltages after a crash probe (soft reset). */
    void softReset();

    /**
     * Begin a measurement run: draws this run's supply jitter. The paper
     * repeats each voltage level 100 times; the tiny run-to-run spread it
     * reports (Table II) comes from exactly this noise source.
     */
    void startRun();

    /**
     * Begin a jitter-free reference run: the deterministic median-run
     * conditions used when extracting per-BRAM maps.
     */
    void startReferenceRun();

    /** Supply jitter of the run in progress, volts. */
    double runJitterV() const { return runJitterV_; }

    /**
     * Re-enter a run after crash recovery with the jitter it already
     * drew, so the retried run reproduces the interrupted one exactly
     * (no fresh draw from the run-jitter stream).
     */
    void resumeRun(double jitter_v);

    /** startRun() calls made so far (the run-jitter stream cursor). */
    std::uint64_t runsStarted() const { return runsStarted_; }

    /**
     * Replay @a runs startRun() draws without measuring: positions the
     * run-jitter stream for a checkpoint resume so the continued
     * campaign equals the uninterrupted one bit for bit.
     */
    void fastForwardRuns(std::uint64_t runs);

    /**
     * Self-check of the programmed design's internal logic (substitute
     * for observing computation errors when VCCINT is underscaled):
     * true when VCCINT has entered its CRITICAL region.
     */
    bool internalLogicFaulty() const;

    /**
     * Read one BRAM back to the host under the present voltage,
     * temperature and jitter, into a caller-owned plane: the observed
     * contents as bit-packed 64-bit fault-domain words (@a out holds
     * fpga::bramWords of them), shipped through the CRC-verified serial
     * path. The plane's own bytes are the frame, and on success @a out
     * is the host's verified copy. crashDetected when the configuration
     * is (or just spuriously went) down, linkExhausted when
     * retransmission ran out of attempts; the board stays consistent,
     * and a softReset() + re-fill recovers it.
     */
    Expected<void> tryReadBramPacked(std::uint32_t bram,
                                     std::span<std::uint64_t> out) const;

    /** tryReadBramPacked() into a fresh plane. */
    Expected<std::vector<std::uint64_t>>
    tryReadBramPacked(std::uint32_t bram) const;

    /**
     * Device-wide fault count for the run in progress: the sweep inner
     * loop. Equals summing tryCountBramFaults() over the pool bit for
     * bit — including the per-BRAM probe accounting and the injected
     * spurious-crash schedule when a harsh environment is attached —
     * but on a quiet schedule it goes through a vmodel::CountIndex: the
     * first count of a content epoch builds the index, and every count
     * is a binary search through it.
     */
    Expected<std::uint64_t> tryCountDeviceFaults() const;

    /** Effective bitcell voltage under the current conditions. */
    double effectiveVoltage() const;

    /** Power-meter reading of the BRAM rail, watts. */
    double measureBramPowerW() const;

  private:
    /**
     * One BRAM's fault count without the serial transfer, probe and
     * crash-schedule accounting included: the step the armed-schedule
     * branch of tryCountDeviceFaults() replays per BRAM.
     */
    Expected<int> tryCountBramFaults(std::uint32_t bram) const;

    /** Retryable PAGE + VOUT_COMMAND + READ_VOUT verify sequence. */
    Expected<void> writeVerifiedSetpoint(int page, int mv);

    /** Arm / fire the injected spurious-crash schedule. */
    void armCrashSchedule() const;
    bool crashFires() const;

    fpga::Device device_;
    std::shared_ptr<const vmodel::ChipFaultModel> faults_;
    Ucd9248 regulator_;
    mutable SerialLink link_;
    std::unique_ptr<FaultInjector> injector_;
    mutable PmbusStats pmbusStats_;
    int pageBram_;
    int pageInt_;
    int maxPmbusAttempts_ = 8;
    double ambientC_ = vmodel::referenceTempC;
    double runJitterV_ = 0.0;
    std::uint64_t runsStarted_ = 0;
    mutable bool forcedCrash_ = false;
    mutable int crashCountdown_ = -1; ///< ops until injected crash; -1 off
    mutable vmodel::CountIndex countIndex_; ///< quiet-schedule device count
    Rng runRng_;
};

} // namespace uvolt::pmbus

#endif // UVOLT_PMBUS_BOARD_HH
