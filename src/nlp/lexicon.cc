#include "nlp/lexicon.h"

#include <algorithm>

namespace fexiot {

const Lexicon& Lexicon::Get() {
  static const Lexicon kInstance;
  return kInstance;
}

Lexicon::Lexicon() {
  // --- Synonym groups (first word is the canonical form). Each group also
  // becomes one semantic cluster for the embedding prior. -------------------
  const std::vector<std::vector<std::string>> groups = {
      {"light", "lamp", "bulb", "lights"},
      {"switch", "toggle"},
      {"plug", "outlet", "socket"},
      {"thermostat"},
      {"heater", "radiator"},
      {"ac", "aircon", "airconditioner", "conditioner"},
      {"fan", "ventilator"},
      {"camera", "cam"},
      {"lock", "deadbolt"},
      {"door"},
      {"window"},
      {"blind", "shade", "curtain"},
      {"valve"},
      {"sprinkler", "irrigation"},
      {"alarm", "siren", "beeping"},
      {"smoke"},
      {"co", "monoxide"},
      {"motion", "movement", "presence"},
      {"contact"},
      {"leak", "moisture", "flood"},
      {"humidity"},
      {"temperature", "temp"},
      {"doorbell", "chime"},
      {"vacuum", "roomba"},
      {"coffee", "espresso"},
      {"oven", "stove", "cooker"},
      {"tv", "television"},
      {"speaker", "sound"},
      {"garage"},
      {"heating"},
      {"notification", "notify", "alert", "message"},
      {"water"},
      {"kitchen"},
      {"bedroom"},
      {"bathroom"},
      {"living"},
      {"hallway"},
      {"turn", "switch"},
      {"open", "unlock", "raise"},
      {"close", "shut", "lower"},
      {"start", "activate", "begin", "run"},
      {"stop", "deactivate", "disable", "halt"},
      {"detect", "sense", "detected", "sensed"},
      {"dim", "brighten"},
      {"arrive", "arrives", "arriving", "home"},
      {"leave", "leaves", "away", "depart"},
      {"sunset", "dusk"},
      {"sunrise", "dawn"},
      {"high", "above"},
      {"low", "below"},
      {"on"},
      {"off"},
  };
  for (const auto& g : groups) AddSynonymGroup(g);

  // --- Hypernyms (IS-A). ----------------------------------------------------
  for (const char* device :
       {"light", "switch", "plug", "thermostat", "heater", "ac", "fan",
        "camera", "lock", "blind", "valve", "sprinkler", "alarm", "vacuum",
        "oven", "tv", "speaker", "doorbell"}) {
    AddHypernym(device, "device");
  }
  for (const char* sensor :
       {"smoke", "co", "motion", "contact", "leak", "humidity",
        "temperature"}) {
    AddHypernym(sensor, "sensor");
  }
  AddHypernym("sensor", "device");
  AddHypernym("lamp", "light");
  AddHypernym("deadbolt", "lock");

  // --- Meronyms (PART-OF). --------------------------------------------------
  for (const char* room :
       {"kitchen", "bedroom", "bathroom", "living", "hallway", "garage"}) {
    AddMeronym(room, "house");
  }
  AddMeronym("lock", "door");
  AddMeronym("valve", "pipe");
  AddMeronym("bulb", "light");

  // --- Causal domain associations (device -> affected phenomenon). -----------
  for (const auto& [a, b] : std::initializer_list<std::pair<const char*, const char*>>{
           {"heater", "temperature"}, {"ac", "temperature"},
           {"fan", "temperature"},    {"thermostat", "temperature"},
           {"window", "temperature"}, {"oven", "smoke"},
           {"valve", "leak"},         {"valve", "water"},
           {"sprinkler", "humidity"}, {"blind", "light"},
           {"alarm", "sound"},        {"speaker", "sound"},
           {"tv", "sound"},           {"doorbell", "sound"},
           {"vacuum", "sound"},       {"light", "motion"}}) {
    AddCausalAssociation(a, b);
  }

  // --- Word classes for the POS tagger. -------------------------------------
  for (const char* v :
       {"turn", "open", "close", "lock", "unlock", "start", "stop", "set",
        "dim", "brighten", "send", "notify", "record", "arm", "disarm",
        "activate", "deactivate", "run", "enable", "disable", "shut",
        "raise", "lower", "begin", "halt", "detect", "trigger", "beep",
        "ring", "switch", "play", "pause", "brew", "water", "adjust"}) {
    action_verbs_set_.insert(v);
  }
  for (const char* n :
       {"light", "lamp", "bulb", "switch", "plug", "outlet", "socket",
        "thermostat", "heater", "radiator", "ac", "aircon", "fan",
        "ventilator", "camera", "cam", "lock", "deadbolt", "door", "window",
        "blind", "shade", "curtain", "valve", "sprinkler", "alarm", "siren",
        "detector", "sensor", "doorbell", "chime", "vacuum", "roomba",
        "oven", "stove", "cooker", "tv", "television", "speaker",
        "garage", "gate", "heating"}) {
    device_nouns_set_.insert(n);
  }
  for (const char* s :
       {"on", "off", "open", "closed", "locked", "unlocked", "high", "low",
        "hot", "cold", "wet", "dry", "detected", "cleared", "active",
        "inactive", "running", "stopped", "armed", "disarmed"}) {
    state_words_.insert(s);
  }
}

void Lexicon::AddSynonymGroup(const std::vector<std::string>& words) {
  const int gid = static_cast<int>(group_canonical_.size());
  group_canonical_.push_back(words.front());
  ++num_clusters_;
  for (const auto& w : words) {
    // First group wins if a word appears in several (e.g. "switch").
    synonym_group_.emplace(w, gid);
    cluster_.emplace(w, gid + 1);  // cluster 0 reserved for unknown words
  }
}

void Lexicon::AddHypernym(const std::string& child,
                          const std::string& parent) {
  hypernyms_[child].push_back(parent);
}

void Lexicon::AddMeronym(const std::string& part, const std::string& whole) {
  meronyms_[part].push_back(whole);
}

void Lexicon::AddCausalAssociation(const std::string& a,
                                   const std::string& b) {
  causal_pairs_.insert(a + "\t" + b);
  causal_pairs_.insert(b + "\t" + a);
}

bool Lexicon::AreCausallyAssociated(const std::string& a,
                                    const std::string& b) const {
  return causal_pairs_.count(Canonical(a) + "\t" + Canonical(b)) > 0;
}

bool Lexicon::AreSynonyms(const std::string& a, const std::string& b) const {
  auto ia = synonym_group_.find(a);
  auto ib = synonym_group_.find(b);
  if (ia == synonym_group_.end() || ib == synonym_group_.end()) {
    return false;
  }
  return ia->second == ib->second;
}

bool Lexicon::IsHypernym(const std::string& a, const std::string& b) const {
  const std::string& ca = Canonical(a);
  const std::string& cb = Canonical(b);
  if (ca == cb) return false;
  // BFS up the IS-A chain (chains are tiny: depth <= 3).
  std::vector<std::string> frontier = {ca};
  for (int depth = 0; depth < 4 && !frontier.empty(); ++depth) {
    std::vector<std::string> next;
    for (const auto& w : frontier) {
      auto it = hypernyms_.find(w);
      if (it == hypernyms_.end()) continue;
      for (const auto& parent : it->second) {
        if (Canonical(parent) == cb) return true;
        next.push_back(parent);
      }
    }
    frontier = std::move(next);
  }
  return false;
}

bool Lexicon::IsMeronym(const std::string& a, const std::string& b) const {
  auto it = meronyms_.find(Canonical(a));
  if (it == meronyms_.end()) return false;
  const std::string& cb = Canonical(b);
  for (const auto& whole : it->second) {
    if (Canonical(whole) == cb) return true;
  }
  return false;
}

LexicalRelation Lexicon::Relation(const std::string& a,
                                  const std::string& b) const {
  if (a == b || AreSynonyms(a, b)) return LexicalRelation::kSynonym;
  if (IsHypernym(a, b)) return LexicalRelation::kHypernym;
  if (IsMeronym(a, b)) return LexicalRelation::kMeronym;
  if (IsMeronym(b, a)) return LexicalRelation::kHolonym;
  return LexicalRelation::kNone;
}

const std::string& Lexicon::Canonical(const std::string& word) const {
  auto it = synonym_group_.find(word);
  if (it == synonym_group_.end()) return word;
  return group_canonical_[static_cast<size_t>(it->second)];
}

int Lexicon::ClusterId(const std::string& word) const {
  auto it = cluster_.find(word);
  return it == cluster_.end() ? 0 : it->second;
}

bool Lexicon::IsActionVerb(const std::string& word) const {
  return action_verbs_set_.count(word) > 0;
}

bool Lexicon::IsDeviceNoun(const std::string& word) const {
  return device_nouns_set_.count(word) > 0;
}

bool Lexicon::IsStateWord(const std::string& word) const {
  return state_words_.count(word) > 0;
}

}  // namespace fexiot
