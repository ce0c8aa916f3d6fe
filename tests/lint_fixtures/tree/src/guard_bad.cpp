// Seeded violations for the `guard-pairing` rule: discarded RAII
// temporaries and protocol opens whose closing half can be skipped.
namespace fixture {

struct Node3 {
  void setBackgroundWork(bool on);
};
struct SpanGuard {
  SpanGuard(const char* name, int tier);
  ~SpanGuard();
};
void beginSpan(const char* name, int tier);
void endSpan(int outcome);
void work();

void discardedGuard() {
  SpanGuard("serve", 1);  // destroyed at the semicolon; guards nothing
  work();
}

void earlyReturnSkipsClose(bool fastPath) {
  beginSpan("serve", 1);
  if (fastPath) {
    return;  // skips endSpan on this path
  }
  work();
  endSpan(0);
}

void backgroundNeverRestored(Node3& node) {
  node.setBackgroundWork(true);
  work();  // foreground QoS never restored
}

struct Ring {
  void drainMember(unsigned long index);
  void admitMember(unsigned long index);
};

void drainWithoutRejoin(Ring& ring) {
  ring.drainMember(3);
  work();  // never re-added, never retired
}

}  // namespace fixture
