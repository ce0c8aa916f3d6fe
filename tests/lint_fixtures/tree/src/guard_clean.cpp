// Clean counterpart for the `guard-pairing` rule: named guards, paired
// halves, and RAII classes whose closing half lives in the destructor.
namespace fixture {

struct Node4 {
  void setBackgroundWork(bool on);
};
struct SpanGuard {
  SpanGuard(const char* name, int tier);
  ~SpanGuard();
};
void beginSpan(const char* name, int tier);
void endSpan(int outcome);
void work2();

void namedGuard() {
  SpanGuard guard("serve", 1);  // bound: closes when the scope ends
  work2();
}

void pairedProtocol(Node4& node) {
  node.setBackgroundWork(true);
  work2();
  node.setBackgroundWork(false);
}

void pairedSpan() {
  beginSpan("serve", 1);
  work2();
  endSpan(0);
}

// RAII wrapper: the open lives in the constructor, the close in the
// destructor — class-level credit pairs them.
class PumpScope {
 public:
  explicit PumpScope(Node4& node) : node_(node) {
    node_.setBackgroundWork(true);
  }
  ~PumpScope() { node_.setBackgroundWork(false); }

 private:
  Node4& node_;
};

struct Ring2 {
  void drainMember(unsigned long index);
  void admitMember(unsigned long index);
  void dropShard(unsigned long index);
};

void drainAndRejoin(Ring2& ring) {
  ring.drainMember(3);
  work2();
  ring.admitMember(3);
}

void drainAndRetire(Ring2& ring) {
  ring.drainMember(4);
  work2();
  ring.dropShard(4);  // retirement closes the drain window too
}

}  // namespace fixture
