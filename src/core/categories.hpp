// The MOSAIC category model (paper Table I).
//
// A trace is described by a *set* of non-exclusive categories drawn from
// three axes: temporality (when reads/writes happen), periodicity (repeated
// operations, their period magnitude and busy time) and metadata impact.
// Reads and writes are classified independently (paper §III-A), so the flat
// category space carries a read_/write_ prefix on the first two axes —
// matching the labels the paper's Fig. 5 heatmap uses ("read on start",
// "periodic write", ...).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "trace/trace.hpp"
#include "util/error.hpp"

namespace mosaic::core {

/// Flat category identifiers. Keep kCategoryCount in sync.
enum class Category : std::uint8_t {
  // Temporality, read.
  kReadOnStart,
  kReadOnEnd,
  kReadAfterStart,
  kReadBeforeEnd,
  kReadAfterStartBeforeEnd,
  kReadSteady,
  kReadInsignificant,
  kReadUnclassified,
  // Temporality, write.
  kWriteOnStart,
  kWriteOnEnd,
  kWriteAfterStart,
  kWriteBeforeEnd,
  kWriteAfterStartBeforeEnd,
  kWriteSteady,
  kWriteInsignificant,
  kWriteUnclassified,
  // Periodicity, read.
  kReadPeriodic,
  kReadPeriodicSecond,
  kReadPeriodicMinute,
  kReadPeriodicHour,
  kReadPeriodicDayOrMore,
  kReadPeriodicLowBusyTime,
  kReadPeriodicHighBusyTime,
  // Periodicity, write.
  kWritePeriodic,
  kWritePeriodicSecond,
  kWritePeriodicMinute,
  kWritePeriodicHour,
  kWritePeriodicDayOrMore,
  kWritePeriodicLowBusyTime,
  kWritePeriodicHighBusyTime,
  // Metadata impact.
  kMetadataHighSpike,
  kMetadataMultipleSpikes,
  kMetadataHighDensity,
  kMetadataInsignificantLoad,
};

/// Number of distinct categories.
inline constexpr std::size_t kCategoryCount = 34;

/// Snake-case name as used in reports, e.g. "read_on_start".
[[nodiscard]] std::string_view category_name(Category category) noexcept;

/// Inverse of category_name; nullopt for unknown names.
[[nodiscard]] std::optional<Category> category_from_name(
    std::string_view name) noexcept;

/// Axis a category belongs to.
enum class CategoryAxis : std::uint8_t { kTemporality, kPeriodicity, kMetadata };

[[nodiscard]] CategoryAxis category_axis(Category category) noexcept;

/// The non-exclusive set of categories assigned to one trace.
/// Implemented as a fixed-width bitmask over Category.
class CategorySet {
 public:
  constexpr CategorySet() = default;

  void insert(Category category) noexcept {
    bits_ |= bit(category);
  }
  void erase(Category category) noexcept { bits_ &= ~bit(category); }
  [[nodiscard]] bool contains(Category category) const noexcept {
    return (bits_ & bit(category)) != 0;
  }
  [[nodiscard]] bool empty() const noexcept { return bits_ == 0; }
  [[nodiscard]] std::size_t size() const noexcept;

  friend bool operator==(const CategorySet&, const CategorySet&) = default;

  /// Members in enum order.
  [[nodiscard]] std::vector<Category> to_vector() const;

  /// Comma-free list of category names, sorted by enum order.
  [[nodiscard]] std::vector<std::string> names() const;

  /// Raw bitmask (bit i == static_cast<Category>(i) present).
  [[nodiscard]] std::uint64_t raw() const noexcept { return bits_; }

 private:
  static constexpr std::uint64_t bit(Category category) noexcept {
    return 1ull << static_cast<unsigned>(category);
  }
  std::uint64_t bits_ = 0;
};

/// All categories in enum order (for report iteration).
[[nodiscard]] const std::vector<Category>& all_categories();

}  // namespace mosaic::core
