/**
 * @file
 * Hardware-programming shim: renders a RegionLayout into the exact
 * command sequence a real deployment issues on the paper's testbed —
 * Intel CAT class-of-service definitions and core associations via
 * the `pqos` utility (libpqos), MBA throttles, and `taskset` core
 * affinities per application.
 *
 * On the simulator these strings document what *would* be executed;
 * on a real node they can be piped straight to a shell. The command
 * dialect follows pqos(8) from intel-cmt-cat:
 *
 *   pqos -e "llc:<cos>=<cbm>"         define a CAT class of service
 *   pqos -e "mba:<cos>=<percent>"     define an MBA throttle
 *   pqos -a "llc:<cos>=<cores>"       bind cores to the class
 *   taskset -cp <cores> $PID_APP<id>  pin an app's threads
 */

#ifndef AHQ_MACHINE_PQOS_HH
#define AHQ_MACHINE_PQOS_HH

#include <string>
#include <vector>

#include "machine/config.hh"
#include "machine/layout.hh"

namespace ahq::machine
{

/** One rendered command with its role, for logging and testing. */
struct HwCommand
{
    enum class Kind
    {
        CatDefine,   // pqos -e llc:...
        MbaDefine,   // pqos -e mba:...
        CosAssociate, // pqos -a llc:...
        Affinity,    // taskset -cp ...
    };

    Kind kind;
    std::string text;
};

/**
 * Renders layouts into pqos/taskset command sequences.
 */
class PqosProgrammer
{
  public:
    /**
     * @param config The node (for totals and the MBA percentage
     *               granularity). Taskset lines name each app's
     *               process as the shell variable $PID_APP<id>.
     */
    explicit PqosProgrammer(MachineConfig config);

    /**
     * Full (re)programming sequence for a layout: one CAT class of
     * service per region (COS1..N; COS0 is left as the default), an
     * MBA throttle per region, core associations, and per-app
     * taskset lines covering every region the app may run in.
     */
    std::vector<HwCommand> program(const RegionLayout &layout) const;

    /** Render only the shell text lines of a sequence. */
    static std::vector<std::string>
    toShell(const std::vector<HwCommand> &commands);

  private:
    MachineConfig config_;

    std::string coreListOf(const RegionLayout &layout,
                           const ConcreteMasks &masks,
                           AppId app) const;
};

/** Render a CoreMask as a taskset-style core list ("0-3,7"). */
std::string coreList(const CoreMask &mask);

} // namespace ahq::machine

#endif // AHQ_MACHINE_PQOS_HH
