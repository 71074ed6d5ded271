// Fixture: a transitively Phase-derived class stashing mutable pointers
// and references to store/system types instead of using EngineContext.
#pragma once
#include "phase_base.hpp"

struct RcsSystem;
struct EngineContext;
struct Network;

class BadPhase : public MidPhase {
 public:
  explicit BadPhase(EngineContext& ctx) : ctx_(ctx) {}

 private:
  RcsSystem* sys_ = nullptr;  // EXPECT: phase-purity
  EngineContext& ctx_;        // EXPECT: phase-purity
  Network* net_ = nullptr;    // EXPECT: phase-purity
};
