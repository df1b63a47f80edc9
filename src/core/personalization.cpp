#include "core/personalization.h"

#include <algorithm>

namespace mcs::core {

void PersonalizationEngine::upsert_profile(UserProfile profile) {
  profiles_[profile.user_id] = std::move(profile);
}

const UserProfile* PersonalizationEngine::profile(
    const std::string& user_id) const {
  auto it = profiles_.find(user_id);
  return it == profiles_.end() ? nullptr : &it->second;
}

bool PersonalizationEngine::forget(const std::string& user_id) {
  return profiles_.erase(user_id) > 0;
}

void PersonalizationEngine::personalize_catalog(
    const std::string& user_id, std::vector<CatalogItem>& items) const {
  const UserProfile* p = profile(user_id);
  if (p == nullptr) return;

  auto interest_rank = [p](std::string_view category) -> std::size_t {
    for (std::size_t i = 0; i < p->interests.size(); ++i) {
      if (p->interests[i] == category) return i;
    }
    return p->interests.size();
  };
  // Filter by affordability, then sort by (interest rank, price, row): the
  // row tie-break gives the stable order without stable_sort's buffer.
  std::erase_if(items, [&](const CatalogItem& it) {
    return it.price > p->spending_limit;
  });
  std::sort(items.begin(), items.end(),
            [&](const CatalogItem& a, const CatalogItem& b) {
              const auto ra = interest_rank(a.category);
              const auto rb = interest_rank(b.category);
              if (ra != rb) return ra < rb;
              if (a.price != b.price) return a.price < b.price;
              return a.row < b.row;
            });
}

void PersonalizationEngine::record_interest(const std::string& user_id,
                                            std::string_view category) {
  auto it = profiles_.find(user_id);
  if (it == profiles_.end()) return;
  auto& interests = it->second.interests;
  std::erase(interests, category);
  interests.emplace(interests.begin(), category);
}

}  // namespace mcs::core
