#include "storage/consistency.h"

#include <unordered_set>

namespace snb::storage {

namespace {

void Check(bool ok, std::vector<std::string>& issues, std::string message) {
  if (!ok) issues.push_back(std::move(message));
}

}  // namespace

std::vector<std::string> CheckGraphConsistency(const Graph& graph) {
  std::vector<std::string> issues;

  // ---- Id maps round-trip ---------------------------------------------------
  auto round_trip = [&](const char* what, size_t n, auto idx_of_row) {
    for (uint32_t i = 0; i < n; ++i) {
      if (idx_of_row(i) != i) {
        issues.push_back(std::string(what) + " id map broken at index " +
                         std::to_string(i));
        return;
      }
    }
  };
  round_trip("person", graph.NumPersons(), [&](uint32_t i) {
    return graph.PersonIdx(graph.PersonId(i));
  });
  round_trip("post", graph.NumPosts(),
             [&](uint32_t i) { return graph.PostIdx(graph.PostId(i)); });
  round_trip("comment", graph.NumComments(),
             [&](uint32_t i) { return graph.CommentIdx(graph.CommentId(i)); });

  // ---- Knows symmetry --------------------------------------------------------
  {
    size_t asym = 0;
    for (uint32_t p = 0; p < graph.NumPersons() && asym == 0; ++p) {
      graph.Knows().ForEach(p, [&](uint32_t q) {
        if (!graph.Knows().Contains(q, p)) ++asym;
      });
    }
    Check(asym == 0, issues, "knows relation is not symmetric");
  }

  // ---- Forward/reverse edge-count agreement -----------------------------------
  {
    size_t person_posts = 0;
    for (uint32_t p = 0; p < graph.NumPersons(); ++p) {
      person_posts += graph.PersonPosts().Degree(p);
    }
    Check(person_posts == graph.NumPosts(), issues,
          "person→posts degree sum != post count");

    size_t person_comments = 0;
    for (uint32_t p = 0; p < graph.NumPersons(); ++p) {
      person_comments += graph.PersonComments().Degree(p);
    }
    Check(person_comments == graph.NumComments(), issues,
          "person→comments degree sum != comment count");

    size_t likes_fwd = 0, likes_rev = 0;
    for (uint32_t p = 0; p < graph.NumPersons(); ++p) {
      likes_fwd += graph.PersonLikes().Degree(p);
    }
    for (uint32_t post = 0; post < graph.NumPosts(); ++post) {
      likes_rev += graph.PostLikers().Degree(post);
    }
    for (uint32_t c = 0; c < graph.NumComments(); ++c) {
      likes_rev += graph.CommentLikers().Degree(c);
    }
    Check(likes_fwd == likes_rev, issues,
          "person→likes vs message→likers edge counts disagree");

    size_t members = 0, member_of = 0;
    for (uint32_t f = 0; f < graph.NumForums(); ++f) {
      members += graph.ForumMembers().Degree(f);
    }
    for (uint32_t p = 0; p < graph.NumPersons(); ++p) {
      member_of += graph.PersonForums().Degree(p);
    }
    Check(members == member_of, issues,
          "forum→members vs person→forums edge counts disagree");

    size_t tag_fwd = 0, tag_rev = 0;
    for (uint32_t post = 0; post < graph.NumPosts(); ++post) {
      tag_fwd += graph.PostTags().Degree(post);
    }
    for (uint32_t c = 0; c < graph.NumComments(); ++c) {
      tag_fwd += graph.CommentTags().Degree(c);
    }
    for (uint32_t t = 0; t < graph.NumTags(); ++t) {
      tag_rev += graph.TagPosts().Degree(t) + graph.TagComments().Degree(t);
    }
    Check(tag_fwd == tag_rev, issues,
          "message→tags vs tag→messages edge counts disagree");
  }

  // ---- Column correctness ------------------------------------------------------
  {
    size_t bad_creator = 0;
    for (uint32_t p = 0; p < graph.NumPersons() && bad_creator == 0; ++p) {
      graph.PersonPosts().ForEach(p, [&](uint32_t post) {
        if (graph.PostCreator(post) != p) ++bad_creator;
      });
    }
    Check(bad_creator == 0, issues,
          "post_creator column disagrees with person→posts adjacency");

    size_t bad_root = 0;
    for (uint32_t c = 0; c < graph.NumComments(); ++c) {
      uint32_t msg = graph.CommentReplyOf(c);
      while (!Graph::IsPost(msg)) {
        msg = graph.CommentReplyOf(Graph::AsComment(msg));
      }
      if (graph.CommentRootPost(c) != Graph::AsPost(msg)) ++bad_root;
    }
    Check(bad_root == 0, issues,
          std::to_string(bad_root) + " precomputed comment roots wrong");

    size_t bad_country = 0;
    for (uint32_t p = 0; p < graph.NumPersons(); ++p) {
      uint32_t city = graph.PersonCity(p);
      if (graph.PlaceAt(city).type != core::PlaceType::kCity ||
          graph.PlacePartOf(city) != graph.PersonCountry(p)) {
        ++bad_country;
      }
    }
    Check(bad_country == 0, issues,
          "person country column disagrees with the place hierarchy");
  }

  // ---- CountryPersons partition -------------------------------------------------
  {
    size_t assigned = 0;
    bool misplaced = false;
    for (uint32_t place = 0; place < graph.NumPlaces(); ++place) {
      graph.CountryPersons().ForEach(place, [&](uint32_t p) {
        ++assigned;
        if (graph.PersonCountry(p) != place) misplaced = true;
      });
    }
    Check(assigned == graph.NumPersons() && !misplaced, issues,
          "country→persons index does not partition the persons");
  }

  return issues;
}

}  // namespace snb::storage
