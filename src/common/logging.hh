/**
 * @file
 * Error-reporting helpers in the gem5 tradition.
 *
 * panic()  — an internal invariant of the simulator was violated (a bug in
 *            momsim itself); aborts so a debugger/core dump is useful.
 * fatal()  — the simulation cannot continue because of a user error (bad
 *            configuration, impossible parameter combination); exits cleanly.
 * warn()   — something is approximated or suspicious but survivable.
 * inform() — plain status output.
 */

#ifndef MOMSIM_COMMON_LOGGING_HH
#define MOMSIM_COMMON_LOGGING_HH

#include <cstdarg>
#include <cstdio>
#include <string>

namespace momsim
{

/** printf-style formatting into a std::string. */
std::string strfmt(const char *fmt, ...) __attribute__((format(printf, 1, 2)));

/** Report an internal simulator bug and abort. */
[[noreturn]] void panic(const std::string &msg);

/** Report an unrecoverable user/configuration error and exit(1). */
[[noreturn]] void fatal(const std::string &msg);

/** Report a survivable problem on stderr. */
void warn(const std::string &msg);

/** Report status on stdout. */
void inform(const std::string &msg);

/**
 * Write a preformatted (possibly multi-line) block to stderr in one
 * atomic operation. Debug dumps from worker threads go through this so
 * concurrent dumps cannot interleave mid-line.
 */
void dumpRaw(const std::string &text);

/**
 * Check a simulator invariant; on failure, panic with location info.
 *
 * Debug builds check and report. Release (NDEBUG) builds generate no
 * code: the simulation kernel evaluates these on its hottest lines, so
 * they must cost nothing when the build is for throughput. The operands
 * stay compiled (and ODR-used, so disabling the check cannot introduce
 * -Wunused breakage) behind an always-false branch the optimizer
 * deletes. Keep conditions side-effect free.
 */
#ifdef NDEBUG
#define MOMSIM_ASSERT(cond, msg)                                              \
    do {                                                                      \
        if (false) {                                                          \
            (void)(cond);                                                     \
            (void)(msg);                                                      \
        }                                                                     \
    } while (0)
#else
#define MOMSIM_ASSERT(cond, msg)                                              \
    do {                                                                      \
        if (!(cond)) {                                                        \
            ::momsim::panic(::momsim::strfmt(                                 \
                "%s:%d: assertion '%s' failed: %s",                           \
                __FILE__, __LINE__, #cond, (msg)));                           \
        }                                                                     \
    } while (0)
#endif

} // namespace momsim

#endif // MOMSIM_COMMON_LOGGING_HH
