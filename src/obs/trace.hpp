// Scoped phase timing into Chrome trace_event JSON.
//
// A TraceRecorder collects timestamped begin/end ('B'/'E'), complete ('X')
// and counter ('C') events; write_json() emits the trace_event format that
// chrome://tracing and Perfetto load directly. Everything is keyed off a
// nullable TraceRecorder*: when no recorder is attached the ScopedPhase
// constructor/destructor inline to a pointer test, so instrumented code paths
// cost nothing in un-traced runs (the <2% overhead budget of the benches).
//
// Thread safety: all recording methods take an internal lock, and events
// carry a per-thread id so B/E nesting stays well-formed per track even when
// phases from several threads interleave.
#pragma once

#include <chrono>
#include <cstdint>
#include <iosfwd>
#include <mutex>
#include <string>
#include <vector>

namespace fsaic {

struct TraceEvent {
  std::string name;
  std::string category;
  char phase = 'B';          ///< 'B', 'E', 'X', 'i' or 'C'
  double timestamp_us = 0.0; ///< microseconds since the recorder's epoch
  double duration_us = 0.0;  ///< 'X' events only
  double value = 0.0;        ///< 'C' events only
  std::uint32_t tid = 0;
  /// Optional pre-rendered JSON object emitted as the event's "args" (e.g.
  /// {"rid":42} on the service's per-request slices); empty = no args.
  /// (The `{}` lets designated initializers omit it under GCC 12's
  /// -Wmissing-field-initializers, as with every defaulted member.)
  std::string args{};
};

class TraceRecorder {
 public:
  TraceRecorder() : epoch_(std::chrono::steady_clock::now()) {}

  /// Microseconds elapsed since this recorder was constructed.
  [[nodiscard]] double now_us() const {
    return std::chrono::duration<double, std::micro>(
               std::chrono::steady_clock::now() - epoch_)
        .count();
  }

  /// Open a duration slice ('B'); must be paired with end() of the same name
  /// on the same thread — ScopedPhase guarantees the pairing.
  void begin(const char* name, const char* category);
  void end(const char* name, const char* category);

  /// Record an already-measured slice ('X') at an explicit start time.
  /// `args` is an optional pre-rendered JSON object (use json_escape for
  /// string values) attached verbatim as the slice's args — the hook the
  /// solve service uses to tag its queue/setup/solve slices with the
  /// request id minted at admission.
  void complete(const char* name, const char* category, double ts_us,
                double dur_us, std::string args = {});

  /// Point-in-time marker ('i').
  void instant(const char* name, const char* category);

  /// Counter track sample ('C'), e.g. the residual per iteration.
  void counter(const char* name, double value);

  [[nodiscard]] std::size_t event_count() const;

  /// Snapshot of the events recorded so far.
  [[nodiscard]] std::vector<TraceEvent> events() const;

  /// Emit the full {"traceEvents": [...]} document.
  void write_json(std::ostream& out) const;

  /// write_json to `path`; throws fsaic::Error if the file cannot be opened.
  void write_file(const std::string& path) const;

  /// Name the calling thread's track in every trace written by this process
  /// (emitted as a trace_event "thread_name" metadata record). The SPMD
  /// worker threads register themselves so per-rank slices show up under
  /// "spmd worker N" instead of a bare numeric tid.
  static void label_current_thread(std::string label);

 private:
  void push(TraceEvent event);
  static std::uint32_t current_tid();

  mutable std::mutex mutex_;
  std::vector<TraceEvent> events_;
  std::chrono::steady_clock::time_point epoch_;
};

/// RAII phase scope: begin() on construction, end() on destruction; a null
/// recorder makes both a no-op. The name must outlive the scope (use string
/// literals).
class ScopedPhase {
 public:
  ScopedPhase(TraceRecorder* recorder, const char* name,
              const char* category = "phase")
      : recorder_(recorder), name_(name), category_(category) {
    if (recorder_ != nullptr) recorder_->begin(name_, category_);
  }
  ~ScopedPhase() {
    if (recorder_ != nullptr) recorder_->end(name_, category_);
  }
  ScopedPhase(const ScopedPhase&) = delete;
  ScopedPhase& operator=(const ScopedPhase&) = delete;

 private:
  TraceRecorder* recorder_;
  const char* name_;
  const char* category_;
};

}  // namespace fsaic
