/**
 * @file
 * Table builders for every figure in the paper's evaluation (Section 6).
 * Each bench binary prints one of these; the integration tests assert
 * the qualitative shapes on the same tables.
 */

#ifndef POWERFITS_EXP_FIGURES_HH
#define POWERFITS_EXP_FIGURES_HH

#include "common/table.hh"
#include "exp/experiment.hh"

namespace pfits
{

/** Figure 3: ARM-to-FITS static mapping rate per benchmark. */
Table fig3StaticMapping(Runner &runner);
/** Figure 4: ARM-to-FITS dynamic (execution-weighted) mapping rate. */
Table fig4DynamicMapping(Runner &runner);
/** Figure 5: code size footprint, normalized to ARM = 100%. */
Table fig5CodeSize(Runner &runner);
/** Figure 6: I-cache power breakdown per configuration. */
Table fig6PowerBreakdown(Runner &runner);
/** Figure 7: I-cache switching power saving vs ARM16. */
Table fig7SwitchingSaving(Runner &runner);
/** Figure 8: I-cache internal power saving vs ARM16. */
Table fig8InternalSaving(Runner &runner);
/** Figure 9: I-cache leakage power saving vs ARM16. */
Table fig9LeakageSaving(Runner &runner);
/** Figure 10: I-cache peak power saving vs ARM16. */
Table fig10PeakSaving(Runner &runner);
/** Figure 11: total I-cache power saving vs ARM16. */
Table fig11TotalCacheSaving(Runner &runner);
/** Figure 12: total chip power saving vs ARM16. */
Table fig12ChipSaving(Runner &runner);
/** Figure 13: I-cache misses per million accesses, four configs. */
Table fig13MissRate(Runner &runner);
/** Figure 14: IPC, four configurations (dual-issue, max 2). */
Table fig14Ipc(Runner &runner);

/**
 * E9: way-memoization effect per configuration — the fraction of
 * fetches that hit the memoized line (each one a skipped tag search
 * and a single-way read) and the internal-energy saving from pricing
 * them with TechParams::wayMemo enabled. Purely a power-model
 * re-evaluation of the default runs: the simulated activity counts
 * are identical to every other table's.
 */
Table extWayMemoTable(Runner &runner);

/**
 * Figure 11, DVS axis: suite-total I-cache energy and energy-delay
 * product per operating point of defaultDvsLadder(), with the
 * FITS8-vs-ARM16 total-energy saving at each point.
 */
Table fig11DvsTable(Runner &runner);

/** Mean of a numeric column helper shared by the builders. */
double columnAverage(const std::vector<double> &values);

} // namespace pfits

#endif // POWERFITS_EXP_FIGURES_HH
