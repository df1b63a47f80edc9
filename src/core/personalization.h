#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace mcs::core {

// Personalization engine (paper requirement 2: "It should allow products to
// be personalized or customized upon request"). Server-side: rescores and
// filters catalog rows per user profile before content generation.
struct UserProfile {
  std::string user_id;
  std::string device_name;             // drives adaptation downstream
  std::vector<std::string> interests;  // preferred categories, ordered
  double spending_limit = 1e18;        // filter out unaffordable items
  std::map<std::string, std::string> preferences;  // free-form key/value
};

// One catalog row as the personaliser ranks it. `category` views the
// caller's query result; `row` is the row's position in that result.
struct CatalogItem {
  std::string_view category;
  double price = 0.0;
  std::size_t row = 0;
};

class PersonalizationEngine {
 public:
  void upsert_profile(UserProfile profile);
  const UserProfile* profile(const std::string& user_id) const;
  bool forget(const std::string& user_id);
  std::size_t profile_count() const { return profiles_.size(); }

  // Rank catalog items for a user in place: items priced over the user's
  // spending limit are dropped, the rest ordered by how early the item's
  // category appears in the user's interests, then by price, then by `row`
  // (so ties keep result order). Unknown users get the items unchanged.
  void personalize_catalog(const std::string& user_id,
                           std::vector<CatalogItem>& items) const;

  // Track interactions so interests adapt: bump `category` to the front.
  void record_interest(const std::string& user_id, std::string_view category);

 private:
  std::map<std::string, UserProfile> profiles_;
};

}  // namespace mcs::core
