// Wire codec for RichTableObject. A *remote* cache has to serialize the
// whole object graph on every hit — this codec is that cost made concrete
// (and testable). A linked cache hands out the in-process object and never
// runs it. The deployment does not run it either: it sizes an object by
// RichTableObject::approximateSize() and charges serialization per byte of
// that size. encodedObjectSize() is the real codec's count, for the tests
// and the Unity Catalog example.
#pragma once

#include <optional>
#include <string>
#include <string_view>

#include "richobject/entities.hpp"

namespace dcache::richobject {

/// Encode the structured parts for real; the declared blob (dataBytes) is
/// represented by its size, exactly as the storage layer stores it.
[[nodiscard]] std::string encodeObject(const RichTableObject& object);

[[nodiscard]] std::optional<RichTableObject> decodeObject(
    std::string_view bytes);

/// Bytes a remote-cache transfer of this object pays: real encoding of the
/// structured parts plus the declared blob bytes.
[[nodiscard]] std::uint64_t encodedObjectSize(const RichTableObject& object);

}  // namespace dcache::richobject
