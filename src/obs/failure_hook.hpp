// Failure-hook seam between the check macros and the obs flight recorder.
//
// common/check.hpp calls invoke_failure_hook() on every REFIT_CHECK /
// REFIT_DCHECK failure, just before throwing. EventLog::set_enabled(true)
// installs a hook here that dumps the event-ring tail to stderr, so the
// last events before a broken invariant survive into the post-mortem.
// This header lives in obs (not common) because the module layering only
// permits common → obs includes, never the reverse.
#pragma once

namespace refit::obs {

using FailureHook = void (*)();

/// Install a process-wide failure hook; nullptr clears it. The hook must
/// be async-signal-unsafe-tolerant only in the sense that it runs on the
/// failing thread right before the CheckError throw — keep it best-effort.
void set_failure_hook(FailureHook hook);

/// Run the installed hook, if any. Never throws.
void invoke_failure_hook() noexcept;

}  // namespace refit::obs
