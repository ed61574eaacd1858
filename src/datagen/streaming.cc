#include "datagen/streaming.h"

#include "datagen/datagen.h"
#include "datagen/serializer.h"
#include "datagen/update_stream.h"

namespace snb::datagen {

util::Status GenerateStreaming(const StreamingOptions& options,
                               StreamingStats* stats) {
  const GeneratedData data = Generate(options.datagen);
  SNB_RETURN_IF_ERROR(WriteCsvBasic(data.network, options.out_dir));
  SNB_RETURN_IF_ERROR(WriteUpdateStreams(data.updates, options.out_dir));
  if (stats != nullptr) {
    *stats = {.persons = data.total_persons,
              .knows = data.total_knows,
              .forums = data.total_forums,
              .memberships = data.total_memberships,
              .posts = data.total_posts,
              .comments = data.total_comments,
              .likes = data.total_likes,
              .update_events = data.updates.size(),
              .split_time = data.split_time};
  }
  return util::Status::Ok();
}

}  // namespace snb::datagen
